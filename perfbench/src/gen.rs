//! Seeded input generators.
//!
//! Each generator is a pure function of `(seed, shape)`: the same arguments
//! give byte-identical scenario text and identical frames, and another seed
//! gives the same shape (counts, horizons, fault windows) with different
//! content (profiles, rates, RNG seeds, point positions). The benchmark
//! hands the program only what these functions return.

use std::ops::RangeInclusive;

use arvis_core::churn::{ChurnArrivalSpec, ChurnSpec, LifetimeSpec};
use arvis_core::experiment::{v_for_knee, ExperimentConfig, ServiceSpec};
use arvis_core::fault::{DegradationGuardSpec, FaultEvent, FaultPlan, ShedMode};
use arvis_core::scenario::{ControllerSpec, Scenario, SessionSpec};
use arvis_core::stream::ArStream;
use arvis_core::uplink::{UplinkPolicy, UplinkSpec};
use arvis_pointcloud::synth::{FrameSequence, SubjectProfile};
use arvis_pointcloud::PointCloud;
use arvis_quality::DepthProfile;

/// Input size: the benchmark's own, or a smoke size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A size that runs every workload with all checks in seconds.
    Smoke,
}

/// A small, fast, seedable generator (SplitMix64), independent of the
/// program's own RNGs so the inputs do not move when those change.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Occupied-voxel share per depth 5..=10 of a ~20k-point body scan: the
/// arrival shape of the repository's calibrated preset workload.
const BODY_SHAPE: [f64; 6] = [0.0713, 0.2849, 0.6846, 0.9203, 0.9878, 1.0];
/// Normalized quality per depth 5..=10 of the same workload.
const BODY_QUALITY: [f64; 6] = [0.0, 0.5245, 0.8565, 0.9686, 0.9954, 1.0];
/// Distinct content profiles per generated fleet.
const PROFILE_BANK: usize = 8;
/// Per-frame scale of a cycled stream (mean 1, so the base profile is the
/// stream's mean).
const CYCLE_SCALES: [f64; 4] = [0.95, 1.0, 1.05, 1.0];
/// Periods of modulated streams, dividing the stability window evenly.
const MOD_PERIODS: [f64; 3] = [25.0, 50.0, 100.0];
/// Latency-tracker cap of every session (bounded memory under contention).
const FRAME_CAP: usize = 8_192;
/// Seeds of the cell's join and lifetime draws. The churn schedule (which
/// slots gain and lose tenants) is part of the cell's shape, not its
/// content: every workload seed steps the same live session-slots, so the
/// seed-to-seed spread of `session_slots_per_s` is not a Poisson count.
const CHURN_ARRIVAL_SEED: u64 = 0xCE11_0A77;
const CHURN_LIFETIME_SEED: u64 = 0xCE11_11FE;

/// A body-scan depth profile of `16k..24k` points.
fn body_profile(rng: &mut SplitMix64) -> DepthProfile {
    let points = rng.range(16_000.0, 24_000.0);
    let arrivals = BODY_SHAPE.iter().map(|s| (s * points).round()).collect();
    DepthProfile::from_parts(5, arrivals, BODY_QUALITY.to_vec())
}

fn scaled(profile: &DepthProfile, scale: f64) -> DepthProfile {
    let arrivals = profile
        .depths()
        .map(|d| profile.arrival(d) * scale)
        .collect();
    let quality = profile.depths().map(|d| profile.quality(d)).collect();
    DepthProfile::from_parts(profile.min_depth(), arrivals, quality)
}

/// One of three stream kinds over `base`: constant, a cycle of scaled
/// frames, or a sinusoidally modulated profile.
fn stream(rng: &mut SplitMix64, kind: usize, base: &DepthProfile) -> ArStream {
    match kind % 3 {
        0 => ArStream::constant(base.clone()),
        1 => ArStream::cycle(CYCLE_SCALES.iter().map(|&s| scaled(base, s)).collect()),
        _ => ArStream::modulated(
            base.clone(),
            rng.range(0.05, 0.25),
            MOD_PERIODS[rng.below(MOD_PERIODS.len())],
        ),
    }
}

/// A service rate around `nominal`, from one of two bands: below it, or
/// above the max-depth arrival. A rate within a few percent of the
/// max-depth arrival converges more slowly than the horizon (the backlog
/// drifts by the small difference), so its stability verdict would
/// legitimately read "not yet stable".
fn spread_rate(rng: &mut SplitMix64, nominal: f64) -> f64 {
    if rng.next_u64() & 1 == 0 {
        nominal * rng.range(0.72, 0.95)
    } else {
        nominal * rng.range(1.08, 1.3)
    }
}

/// A proposed-DPP session on `stream` (mean profile `base`): a jittered
/// service rate spread around the calibrated operating point (between the
/// two deepest arrivals), `V` putting the knee at `knee` slots, a
/// decorrelated seed and a capped latency tracker.
fn session(
    rng: &mut SplitMix64,
    base: &DepthProfile,
    stream: ArStream,
    slots: u64,
    knee: f64,
) -> SessionSpec {
    let top = base.max_depth();
    let nominal = (base.arrival(top - 1) * base.arrival(top)).sqrt();
    let v =
        v_for_knee(base, nominal, knee).expect("the nominal rate is below the max-depth arrival");
    let cfg = ExperimentConfig::new(base.clone(), nominal, slots)
        .with_stream(stream)
        .with_service(ServiceSpec::Jittered {
            rate: spread_rate(rng, nominal),
            sigma: rng.range(0.02, 0.06),
        })
        .with_seed(rng.next_u64())
        .with_warmup(slots / 4);
    let mut spec = SessionSpec::from_config(&cfg, ControllerSpec::Proposed { v });
    spec.frame_cap = Some(FRAME_CAP);
    spec
}

/// Shape of `uncoupled_fleet`.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Sessions in the fleet.
    pub sessions: usize,
    /// Slots every session runs.
    pub slots: u64,
}

impl FleetShape {
    /// The shape at `size`.
    pub fn of(size: Size) -> FleetShape {
        match size {
            Size::Full => FleetShape {
                sessions: 4_096,
                slots: 500,
            },
            Size::Smoke => FleetShape {
                sessions: 64,
                slots: 500,
            },
        }
    }
}

/// The `uncoupled_fleet` scenario file: heterogeneous proposed-DPP
/// sessions with no uplink, so it runs the session-major
/// `SessionBatch::run` path of `experiments run`.
pub fn fleet_scenario(seed: u64, shape: &FleetShape) -> String {
    let mut rng = SplitMix64::new(seed ^ 0xF1EE_7000);
    let bank: Vec<DepthProfile> = (0..PROFILE_BANK).map(|_| body_profile(&mut rng)).collect();
    let knee = shape.slots as f64 / 10.0;
    let mut scenario = Scenario::new(shape.slots);
    for i in 0..shape.sessions {
        let base = &bank[rng.below(bank.len())];
        let s = stream(&mut rng, i, base);
        let spec = session(&mut rng, base, s, shape.slots, knee);
        scenario.sessions.push(spec);
    }
    scenario
        .to_json_string()
        .expect("generated scenarios have no extern controllers")
}

/// Shape of `tenant_cell`.
#[derive(Debug, Clone, Copy)]
pub struct CellShape {
    /// Tenants at slot 0.
    pub tenants: usize,
    /// Slot horizon.
    pub slots: u64,
    /// Mean live tenants once joins and departures balance.
    pub live_mean: f64,
    /// Mean tenant lifetime, in slots.
    pub lifetime_mean: f64,
}

impl CellShape {
    /// The shape at `size`.
    pub fn of(size: Size) -> CellShape {
        match size {
            Size::Full => CellShape {
                tenants: 36,
                slots: 6_000,
                live_mean: 28.0,
                lifetime_mean: 200.0,
            },
            Size::Smoke => CellShape {
                tenants: 12,
                slots: 400,
                live_mean: 10.0,
                lifetime_mean: 60.0,
            },
        }
    }
}

/// The `tenant_cell` scenario file: tenants behind one weighted
/// max-weight uplink at 70% of mean demand, Poisson joins and geometric
/// lifetimes with compaction, and a fault plan with an outage, a brownout,
/// lossy grants and a deferring degradation guard.
pub fn cell_scenario(seed: u64, shape: &CellShape) -> String {
    let mut rng = SplitMix64::new(seed ^ 0xCE11_0000);
    let bank: Vec<DepthProfile> = (0..PROFILE_BANK).map(|_| body_profile(&mut rng)).collect();
    let knee = 50.0;
    let mut scenario = Scenario::new(shape.slots);
    let mut weights = Vec::with_capacity(shape.tenants);
    let mut rate_sum = 0.0;
    for i in 0..shape.tenants {
        let base = &bank[rng.below(bank.len())];
        let s = stream(&mut rng, i, base);
        let spec = session(&mut rng, base, s, shape.slots, knee);
        rate_sum += spec.service.mean_rate();
        weights.push(1.0 + (i % 4) as f64);
        scenario.sessions.push(spec);
    }
    let base = &bank[rng.below(bank.len())];
    let template = session(
        &mut rng,
        base,
        ArStream::constant(base.clone()),
        shape.slots,
        knee,
    );
    let budget = 0.7 * shape.live_mean * rate_sum / shape.tenants as f64;
    let slots = shape.slots;
    let mut plan = FaultPlan::new()
        .with_event(FaultEvent::Outage {
            start: slots * 3 / 10,
            slots: (slots / 100).max(1),
        })
        .with_event(FaultEvent::Brownout {
            start: slots * 6 / 10,
            slots: (slots / 20).max(1),
            factor: 0.5,
        })
        .with_guard(DegradationGuardSpec {
            ema_alpha: 0.05,
            engage_above: 0.9,
            release_below: 0.6,
            backlog_limit: f64::INFINITY,
            shed_fraction: 0.25,
            mode: ShedMode::Defer,
        });
    for session in 0..4.min(shape.tenants) {
        plan = plan.with_event(FaultEvent::GrantLoss {
            session,
            p: 0.05,
            seed: rng.next_u64(),
        });
    }
    let lambda = shape.live_mean / shape.lifetime_mean;
    scenario
        .with_uplink(UplinkSpec::new(
            budget,
            UplinkPolicy::WeightedMaxWeight { weights },
        ))
        .with_fault(plan)
        .with_churn(
            ChurnSpec::new()
                .with_arrivals(
                    ChurnArrivalSpec::Poisson {
                        lambda,
                        seed: CHURN_ARRIVAL_SEED,
                    },
                    template,
                    (4.0 * lambda * slots as f64) as u64,
                )
                .with_weight(2.0)
                .with_lifetime(LifetimeSpec::Geometric {
                    mean: shape.lifetime_mean,
                    seed: CHURN_LIFETIME_SEED,
                })
                .with_compaction(true),
        )
        .to_json_string()
        .expect("generated scenarios have no extern controllers")
}

/// Shape of `encoded_pipeline`.
#[derive(Debug, Clone)]
pub struct PipelineShape {
    /// Frames in the content sequence.
    pub frames: usize,
    /// Points per frame.
    pub points: usize,
    /// Candidate octree depths.
    pub depths: RangeInclusive<u8>,
    /// Slots per pipeline run.
    pub slots: u64,
    /// Slot at which `V` puts the controller's knee.
    pub knee: f64,
}

impl PipelineShape {
    /// The shape at `size`.
    pub fn of(size: Size) -> PipelineShape {
        match size {
            Size::Full => PipelineShape {
                frames: 30,
                points: 20_000,
                depths: 5..=10,
                slots: 120,
                knee: 20.0,
            },
            Size::Smoke => PipelineShape {
                frames: 6,
                points: 5_000,
                depths: 4..=8,
                slots: 120,
                knee: 20.0,
            },
        }
    }
}

/// The `encoded_pipeline` content: a walking synthetic body, one frame per
/// 1/30 s, seeded from `seed`.
pub fn frames(seed: u64, shape: &PipelineShape) -> Vec<PointCloud> {
    let base = SplitMix64::new(seed ^ 0xF4A3_E000).next_u64();
    FrameSequence::new(SubjectProfile::Longdress, shape.frames)
        .with_target_points(shape.points)
        .with_seed(base)
        .iter_frames()
        .collect()
}
