//! The closed-loop slotted experiment reproducing the paper's evaluation.
//!
//! Per slot τ: observe `Q(τ)` → the controller picks `d(τ)` → the workload
//! `a(d(τ))` of the current frame enters the queue → the device serves up to
//! its capacity → record backlog, chosen depth and quality. Figs. 2(a) and
//! 2(b) of the paper are exactly the `backlog` and `depth` series of three
//! runs (proposed / only-max / only-min) over 800 slots.
//!
//! [`Experiment::run`] runs one session of the
//! [`crate::session::SessionBatch`] runtime under a
//! [`crate::telemetry::FullTrace`] sink with a caller-defined
//! [`DepthController`] — the one way to run a controller outside the
//! built-in [`crate::scenario::ControllerSpec`] set. Many devices, sweeps
//! and fleets are [`crate::scenario::Scenario`]s run by a
//! [`crate::session::SessionBatch`] directly.

use arvis_sim::stats::{SummaryStats, TimeSeries};
use serde::{Deserialize, Serialize};

use crate::controller::{DepthController, ProposedDpp};
use crate::json::{self, ensure, Rules};
use crate::scenario::{ControllerSpec, Scenario};
use crate::session::SessionBatch;
use crate::stream::ArStream;
use crate::telemetry::CsvRow;
use arvis_quality::DepthProfile;

/// Cloneable specification of a service process (built per run so repeated
/// and parallel runs stay independent and reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceSpec {
    /// Deterministic rate (points/slot).
    Constant(f64),
    /// Rate with multiplicative Gaussian jitter.
    Jittered {
        /// Nominal rate.
        rate: f64,
        /// Relative σ of the jitter.
        sigma: f64,
    },
    /// Periodic throttling.
    DutyCycled {
        /// Unthrottled rate.
        high: f64,
        /// Throttled rate.
        low: f64,
        /// Slots at `high` per cycle.
        high_slots: u64,
        /// Slots at `low` per cycle.
        low_slots: u64,
    },
}

impl ServiceSpec {
    /// The long-run mean service rate.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ServiceSpec::Constant(rate) => rate,
            ServiceSpec::Jittered { rate, .. } => rate,
            ServiceSpec::DutyCycled {
                high,
                low,
                high_slots,
                low_slots,
            } => {
                (high * high_slots as f64 + low * low_slots as f64)
                    / (high_slots + low_slots) as f64
            }
        }
    }

    /// The spec's rule walk: the service constructors' invariants
    /// (non-negative rates and sigma, a non-empty duty cycle whose slot
    /// count fits a `u64` — the constructor sums the two).
    pub(crate) fn check(&self) -> Rules {
        let rate =
            |x: f64, key: &str| ensure(x >= 0.0, key, || format!("{key} must be >= 0, got {x}"));
        match *self {
            ServiceSpec::Constant(r) => rate(r, "rate"),
            ServiceSpec::Jittered { rate: r, sigma } => {
                rate(r, "rate")?;
                rate(sigma, "sigma")
            }
            ServiceSpec::DutyCycled {
                high,
                low,
                high_slots,
                low_slots,
            } => {
                rate(high, "high")?;
                rate(low, "low")?;
                let cycle = high_slots.checked_add(low_slots);
                ensure(cycle.is_some(), "low_slots", || {
                    "high_slots + low_slots overflows u64".to_string()
                })?;
                ensure(cycle != Some(0), "low_slots", || {
                    "cycle must be non-empty".to_string()
                })
            }
        }
    }
}

json::codec!(ServiceSpec as "service type" {
    Constant "constant" (rate),
    Jittered "jittered" { rate, sigma },
    DutyCycled "duty_cycled" { high, low, high_slots, low_slots },
} check);

/// Configuration of one closed-loop run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The frame source.
    pub stream: ArStream,
    /// The device's service model.
    pub service: ServiceSpec,
    /// Number of slots to simulate (the paper uses 800).
    pub slots: u64,
    /// RNG seed for stochastic components.
    pub seed: u64,
    /// Optional finite queue capacity (drops beyond it are counted).
    pub queue_capacity: Option<f64>,
    /// Slots excluded from time-average metrics (transient warm-up).
    pub warmup: u64,
    /// Trade-off coefficient used by [`Experiment::run_proposed`].
    pub controller_v: f64,
}

impl ExperimentConfig {
    /// A stationary-stream experiment over `slots` slots with a constant
    /// service of `service_rate` points/slot.
    pub fn new(profile: DepthProfile, service_rate: f64, slots: u64) -> Self {
        ExperimentConfig {
            stream: ArStream::constant(profile),
            service: ServiceSpec::Constant(service_rate),
            slots,
            seed: 0,
            queue_capacity: None,
            warmup: slots / 4,
            controller_v: 1e6,
        }
    }

    /// Replaces the stream.
    #[must_use]
    pub fn with_stream(mut self, stream: ArStream) -> Self {
        self.stream = stream;
        self
    }

    /// Replaces the service specification.
    #[must_use]
    pub fn with_service(mut self, service: ServiceSpec) -> Self {
        self.service = service;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a finite queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: f64) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Sets the warm-up slot count for time-average metrics.
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the `V` used by [`Experiment::run_proposed`].
    #[must_use]
    pub fn with_controller_v(mut self, v: f64) -> Self {
        self.controller_v = v;
        self
    }
}

/// Per-run output: full time series plus derived metrics.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Name of the controller that produced the run.
    pub controller: String,
    /// `Q(τ)` after each slot — Fig. 2(a)'s y-axis.
    pub backlog: TimeSeries,
    /// Chosen depth per slot — Fig. 2(b)'s y-axis.
    pub depth: TimeSeries,
    /// Quality `p_a(d(τ))` per slot.
    pub quality: TimeSeries,
    /// Injected arrivals `a(d(τ))` per slot.
    pub arrivals: TimeSeries,
    /// Offered service capacity per slot.
    pub service: TimeSeries,
    /// Total work dropped by a finite queue (0 for infinite).
    pub dropped_total: f64,
    /// Time-average quality after warm-up — the paper's objective (Eq. 1).
    pub mean_quality: f64,
    /// Time-average backlog after warm-up — the constraint proxy (Eq. 2).
    pub mean_backlog: f64,
    /// Distribution of the post-warm-up backlog (exact nearest-rank
    /// percentiles). The Lyapunov bound is about tails, not means: a run
    /// with a benign `mean_backlog` can still hide p99 excursions an order
    /// of magnitude above it.
    pub backlog_tail: SummaryStats,
    /// Little's-law delay estimate in slots.
    pub littles_delay: Option<f64>,
    /// Exact per-frame FIFO sojourn times (slots), over frames completed
    /// within the horizon — the per-frame view of the paper's delay
    /// constraint.
    pub frame_latency: SummaryStats,
    /// Fraction of slots whose chosen depth differs from the previous
    /// slot's — the *flicker* rate. Depth oscillation is the perceptual
    /// price of DPP time-sharing; 0 for the fixed baselines.
    pub depth_switch_rate: f64,
    /// Stability verdict of the backlog tail.
    pub stable: bool,
}

impl ExperimentResult {
    /// All series as CSV (slot-indexed columns).
    pub fn to_csv(&self) -> String {
        crate::telemetry::series_csv(&[
            &self.backlog,
            &self.depth,
            &self.quality,
            &self.arrivals,
            &self.service,
        ])
    }

    /// One summary line: `controller,mean_quality,mean_backlog,stable,...`,
    /// including the p95/p99 backlog and delay tails.
    pub fn summary_csv_row(&self) -> String {
        CsvRow::new()
            .field(&self.controller)
            .fixed(self.mean_quality, 6)
            .fixed(self.mean_backlog, 3)
            .field(self.stable)
            .fixed(self.littles_delay.unwrap_or(f64::NAN), 3)
            .fixed(self.frame_latency.mean, 3)
            .fixed(self.frame_latency.p95, 3)
            .fixed(self.dropped_total, 1)
            .fixed(self.backlog_tail.p95, 3)
            .fixed(self.backlog_tail.p99, 3)
            .fixed(self.frame_latency.p99, 3)
            .finish()
    }

    /// Header matching [`ExperimentResult::summary_csv_row`].
    pub fn summary_csv_header() -> &'static str {
        "controller,mean_quality,mean_backlog,stable,littles_delay,frame_latency_mean,\
         frame_latency_p95,dropped_total,backlog_p95,backlog_p99,frame_latency_p99"
    }
}

/// The closed-loop runner.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates a runner for the given configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the closed loop with the given controller.
    ///
    /// The configuration becomes a one-session batch whose row runs the
    /// batch's own per-row slot loop with the caller's controller, on the
    /// calling thread (the controller need not be `Send`), under a
    /// full-trace sink. The per-slot sequence — observe, decide, inject,
    /// serve, account — is the kernel every batch path shares.
    pub fn run(&self, controller: &mut dyn DepthController) -> ExperimentResult {
        // The row's own controller is never stepped (the caller's replaces
        // it); OnlyMin is the cheapest placeholder to build.
        let scenario = Scenario::single(&self.config, ControllerSpec::OnlyMin);
        SessionBatch::full_trace(&scenario).run_with(controller)
    }

    /// Convenience: runs the proposed scheduler with the configured `V`.
    pub fn run_proposed(&self) -> ExperimentResult {
        self.run(&mut ProposedDpp::new(self.config.controller_v))
    }
}

/// Calibrates `V` so the proposed scheduler's backlog knee (the slot where it
/// first abandons the maximum depth) lands near `knee_slots`, assuming a
/// stationary profile and constant service.
///
/// Derivation: while `Q` is small the maximizer is `d_max`; under the
/// Lindley recursion the backlog after slot `t` is
/// `Q(t) = a_max + (t−1)·δ = t·δ + b` with `δ = a(d_max) − b` (the first
/// slot's arrival enters before any service has drained). Depth `d`
/// overtakes `d_max` once `Q > V·(p_max − p(d)) / (a_max − a(d))`; the
/// binding depth is the one minimizing that ratio, so the first switch
/// happens at `t* ≈ (V·ρ_min − b) / δ` with
/// `ρ_min = min_d (p_max−p(d))/(a_max−a(d))`. Inverting gives
/// `V = (t*·δ + b) / ρ_min`. (Without the `+ b` offset the knee lands
/// `b/δ` slots early, a large error whenever the service rate dwarfs the
/// per-slot drift, as in the Fig. 2 setup.)
///
/// Returns `None` when the service rate already covers the max-depth
/// arrival (no knee: max depth is sustainable forever).
pub fn v_for_knee(profile: &DepthProfile, service_rate: f64, knee_slots: f64) -> Option<f64> {
    let d_max = profile.max_depth();
    let (a_max, p_max) = (profile.arrival(d_max), profile.quality(d_max));
    let delta = a_max - service_rate;
    if delta <= 0.0 || knee_slots <= 0.0 {
        return None;
    }
    let rho_min = profile
        .depths()
        .filter(|&d| d != d_max)
        .map(|d| (p_max - profile.quality(d)) / (a_max - profile.arrival(d)))
        .fold(f64::INFINITY, f64::min);
    if !rho_min.is_finite() || rho_min <= 0.0 {
        return None;
    }
    Some((knee_slots * delta + service_rate) / rho_min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{MaxDepth, MinDepth};

    fn profile() -> DepthProfile {
        DepthProfile::from_parts(
            5,
            vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
            vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        )
    }

    fn config(rate: f64, slots: u64) -> ExperimentConfig {
        ExperimentConfig::new(profile(), rate, slots)
    }

    #[test]
    fn max_depth_diverges_when_undersized() {
        // Service 2000 < a(10)=102400: linear divergence, Fig. 2(a) red curve.
        let r = Experiment::new(config(2_000.0, 800)).run(&mut MaxDepth);
        assert!(!r.stable, "max-depth must diverge");
        let final_q = *r.backlog.values().last().unwrap();
        // Drift ≈ 100400/slot.
        assert!(final_q > 7e7, "final backlog {final_q}");
        assert!(r.mean_quality == 1.0);
    }

    #[test]
    fn min_depth_converges_to_zero() {
        let r = Experiment::new(config(2_000.0, 800)).run(&mut MinDepth);
        assert!(r.stable);
        // Arrivals 100 < service 2000: backlog ends each slot at exactly a(5).
        assert!(*r.backlog.values().last().unwrap() <= 100.0 + 1e-9);
        assert_eq!(r.mean_quality, 0.0);
    }

    #[test]
    fn proposed_is_stable_with_intermediate_quality() {
        let cfg = config(2_000.0, 2_000).with_controller_v(1e7);
        let r = Experiment::new(cfg).run_proposed();
        assert!(r.stable, "proposed must stabilize");
        assert!(
            r.mean_quality > 0.05 && r.mean_quality < 1.0,
            "quality {} must be strictly between baselines",
            r.mean_quality
        );
        assert_eq!(r.controller, "proposed");
    }

    #[test]
    fn proposed_beats_threshold_ordering() {
        // Time-average quality: min-depth ≤ proposed ≤ max-depth.
        let q = |r: &ExperimentResult| r.mean_quality;
        let min_r = Experiment::new(config(2_000.0, 800)).run(&mut MinDepth);
        let max_r = Experiment::new(config(2_000.0, 800)).run(&mut MaxDepth);
        let prop = Experiment::new(config(2_000.0, 800).with_controller_v(1e7)).run_proposed();
        assert!(q(&min_r) <= q(&prop));
        assert!(q(&prop) <= q(&max_r));
    }

    #[test]
    fn series_lengths_match_slots() {
        let r = Experiment::new(config(2_000.0, 123)).run(&mut MaxDepth);
        for s in [&r.backlog, &r.depth, &r.quality, &r.arrivals, &r.service] {
            assert_eq!(s.len(), 123);
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = config(2_000.0, 300)
            .with_service(ServiceSpec::Jittered {
                rate: 2_000.0,
                sigma: 0.2,
            })
            .with_seed(42);
        let a = Experiment::new(cfg.clone()).run_proposed();
        let b = Experiment::new(cfg).run_proposed();
        assert_eq!(a.backlog, b.backlog);
        assert_eq!(a.depth, b.depth);
    }

    #[test]
    fn different_seeds_differ_under_jitter() {
        let base = config(2_000.0, 300).with_service(ServiceSpec::Jittered {
            rate: 2_000.0,
            sigma: 0.2,
        });
        let a = Experiment::new(base.clone().with_seed(1)).run_proposed();
        let b = Experiment::new(base.with_seed(2)).run_proposed();
        assert_ne!(a.backlog, b.backlog);
    }

    #[test]
    fn finite_queue_drops_under_overload() {
        let cfg = config(2_000.0, 400).with_queue_capacity(50_000.0);
        let r = Experiment::new(cfg).run(&mut MaxDepth);
        assert!(r.dropped_total > 0.0, "overloaded finite queue must drop");
        assert!(r.backlog.summary().max <= 50_000.0 + 1e-9);
    }

    #[test]
    fn v_zero_behaves_like_min_depth() {
        let cfg = config(2_000.0, 400).with_controller_v(0.0);
        let r = Experiment::new(cfg).run_proposed();
        // With V=0, once backlog > 0 the controller minimizes arrivals.
        let depths = r.depth.values();
        assert!(depths.iter().skip(1).all(|&d| d == 5.0));
    }

    #[test]
    fn service_spec_mean_rates() {
        assert_eq!(ServiceSpec::Constant(5.0).mean_rate(), 5.0);
        assert_eq!(
            ServiceSpec::Jittered {
                rate: 5.0,
                sigma: 0.1
            }
            .mean_rate(),
            5.0
        );
        let duty = ServiceSpec::DutyCycled {
            high: 10.0,
            low: 0.0,
            high_slots: 1,
            low_slots: 1,
        };
        assert_eq!(duty.mean_rate(), 5.0);
    }

    #[test]
    fn knee_calibration_places_the_knee() {
        let p = profile();
        let rate = 2_000.0;
        for target in [200.0f64, 400.0] {
            let v = v_for_knee(&p, rate, target).unwrap();
            let cfg = ExperimentConfig::new(p.clone(), rate, 1_600).with_controller_v(v);
            let r = Experiment::new(cfg).run_proposed();
            // Find the first slot where the depth leaves the maximum.
            let knee = r
                .depth
                .values()
                .iter()
                .position(|&d| d < 10.0)
                .expect("depth must eventually drop") as f64;
            assert!(
                (knee - target).abs() / target < 0.25,
                "target {target}, measured knee {knee}"
            );
        }
    }

    #[test]
    fn knee_calibration_refuses_sustainable_rates() {
        let p = profile();
        assert!(v_for_knee(&p, 200_000.0, 400.0).is_none());
        assert!(v_for_knee(&p, 2_000.0, -1.0).is_none());
    }

    #[test]
    fn csv_outputs() {
        let r = Experiment::new(config(2_000.0, 10)).run(&mut MaxDepth);
        let csv = r.to_csv();
        assert!(csv.starts_with("slot,queue_backlog,control_action_depth"));
        assert_eq!(csv.trim().lines().count(), 11);
        let row = r.summary_csv_row();
        assert!(row.starts_with("only_max_depth,"));
        assert_eq!(
            row.split(',').count(),
            ExperimentResult::summary_csv_header().split(',').count()
        );
    }

    #[test]
    fn depth_switch_rate_of_baselines_is_zero() {
        let r = Experiment::new(config(2_000.0, 400)).run(&mut MaxDepth);
        assert_eq!(r.depth_switch_rate, 0.0);
        let r = Experiment::new(config(2_000.0, 400)).run(&mut MinDepth);
        assert_eq!(r.depth_switch_rate, 0.0);
    }

    #[test]
    fn proposed_flickers_only_after_the_knee() {
        // Pre-knee the proposed scheduler holds max depth; oscillation is
        // confined to the time-sharing phase, so the switch rate is well
        // below 1 but positive.
        let cfg = config(2_000.0, 2_000).with_controller_v(1e7);
        let r = Experiment::new(cfg).run_proposed();
        assert!(r.depth_switch_rate > 0.0, "time-sharing must switch depths");
        assert!(
            r.depth_switch_rate < 0.9,
            "switch rate {} suspiciously high",
            r.depth_switch_rate
        );
    }
}
