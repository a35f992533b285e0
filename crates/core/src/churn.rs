//! Deterministic open-loop session churn (`"schema": 3`): arrivals-driven
//! mid-run joins, per-session lifetime distributions, and SoA slot
//! compaction.
//!
//! A [`ChurnSpec`] turns a fixed-N scenario into a churning fleet:
//!
//! - **Joins.** An arrival process from `arvis_sim::arrivals`
//!   ([`ChurnArrivalSpec`]: Poisson / MMPP-2 / trace, on its own dedicated
//!   seeded RNG stream) decides how many sessions join at each slot, up to
//!   `max_joins`. Every joiner is a clone of the `template`
//!   [`SessionSpec`] with a decorrelated seed
//!   (`child_seed(template.seed, join_index)`), spawned through
//!   [`crate::session::SessionBatch::spawn_at`] — the cold-restart idiom,
//!   so a session joining at slot `k` is **bitwise** a fresh session run
//!   over the residual horizon.
//! - **Departures.** An optional [`LifetimeSpec`] assigns every session —
//!   the initial fleet (born at slot 0) and every joiner (born at its join
//!   slot) — a lifetime drawn as a pure function of the spec and the
//!   session's stable id (`child_seed(seed, id)`), so the departure
//!   schedule is order-invariant by construction. A departing session dies
//!   permanently ([`CrashPolicy::Permanent`] semantics: queue and latency
//!   state discarded) at `birth + lifetime`.
//! - **Compaction.** With `compact` enabled the plane periodically calls
//!   [`crate::session::SessionBatch::compact`], physically evicting `Dead`
//!   rows from the SoA arrays so departed sessions cost nothing per slot.
//!   Because the batch exposes a *logical* (id-indexed) view to the uplink
//!   and telemetry — retired ids contribute exactly the `0.0`
//!   backlog/demand/grant a dead row would — a compacted run is **bitwise
//!   equal** to the same run with compaction disabled, whatever slots the
//!   (deterministic, amortized) trigger fires on.
//!
//! The whole join/departure schedule is precomputed from the spec at
//! [`ChurnPlane::new`] time, which makes bit-exact file replay and
//! order/chunk/serial-parallel invariance trivial: stepping order cannot
//! influence the schedule because the schedule exists before stepping
//! begins. `tests/session_churn.rs` is the differential conformance suite
//! pinning all of the above.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::fault::CrashPolicy;
use crate::json::{self, ensure, Codec, JsonError, JsonValue, Rules};
#[cfg(test)]
use crate::scenario::ControllerSpec;
use crate::scenario::{Scenario, SessionSpec};
use crate::session::SessionBatch;
use crate::telemetry::SummarySink;
use crate::uplink::SharedUplink;
use arvis_sim::arrivals::{ArrivalProcess, Mmpp2, PoissonArrivals};
use arvis_sim::rng::{child_seed, seeded};

/// The arrival process driving mid-run session joins, mirroring
/// `arvis_sim::arrivals` (each variant runs on its own seeded RNG stream,
/// decoupled from every session's stream).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnArrivalSpec {
    /// Poisson arrivals: `lambda` expected joins per slot.
    Poisson {
        /// Expected joins per slot (finite, ≥ 0).
        lambda: f64,
        /// Seed of the arrival process's dedicated RNG stream.
        seed: u64,
    },
    /// Two-state Markov-modulated Poisson process: bursts of
    /// `lambda_high` joins/slot over a `lambda_low` baseline.
    Mmpp2 {
        /// Joins per slot in the low state (finite, ≥ 0).
        lambda_low: f64,
        /// Joins per slot in the high state (finite, ≥ 0).
        lambda_high: f64,
        /// Per-slot probability of switching low → high (in `[0, 1]`).
        switch_up: f64,
        /// Per-slot probability of switching high → low (in `[0, 1]`).
        switch_down: f64,
        /// Seed of the arrival process's dedicated RNG stream.
        seed: u64,
    },
    /// Replayed join counts, cycled over the horizon.
    Trace {
        /// Joins per slot; slot `t` reads `counts[t % len]` (non-empty).
        counts: Vec<u64>,
    },
}

impl ChurnArrivalSpec {
    /// The process's rule walk; messages start with `"arrivals:"`.
    fn check(&self) -> Rules {
        match self {
            ChurnArrivalSpec::Poisson { lambda, .. } => {
                ensure(lambda.is_finite() && *lambda >= 0.0, "lambda", || {
                    format!(
                        "arrivals: poisson lambda must be finite and non-negative, got {lambda}"
                    )
                })
            }
            ChurnArrivalSpec::Mmpp2 {
                lambda_low,
                lambda_high,
                switch_up,
                switch_down,
                ..
            } => {
                for (name, rate) in [("lambda_low", lambda_low), ("lambda_high", lambda_high)] {
                    ensure(rate.is_finite() && *rate >= 0.0, name, || {
                        format!(
                            "arrivals: mmpp2 {name} must be finite and non-negative, got {rate}"
                        )
                    })?;
                }
                for (name, p) in [("switch_up", switch_up), ("switch_down", switch_down)] {
                    ensure((0.0..=1.0).contains(p), name, || {
                        format!("arrivals: mmpp2 {name} must be in [0, 1], got {p}")
                    })?;
                }
                Ok(())
            }
            ChurnArrivalSpec::Trace { counts } => ensure(!counts.is_empty(), "counts", || {
                "arrivals: need at least one traced join count".to_string()
            }),
        }
    }
}

json::codec!(ChurnArrivalSpec as "churn arrival type" {
    Poisson "poisson" { lambda, seed },
    Mmpp2 "mmpp2" { lambda_low, lambda_high, switch_up, switch_down, seed },
    Trace "trace" { counts },
});

/// Per-session lifetime distribution. Every session — initial fleet and
/// joiners alike — draws its lifetime as a pure function of the spec and
/// its stable session id (`child_seed(seed, id)`), so the departure
/// schedule is independent of stepping, chunking, and join interleaving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LifetimeSpec {
    /// Every session lives exactly `slots` slots.
    Fixed {
        /// Lifetime in slots (≥ 1).
        slots: u64,
    },
    /// Geometric lifetime on `{1, 2, …}` with the given mean (success
    /// probability `1 / mean` per slot).
    Geometric {
        /// Mean lifetime in slots (finite, ≥ 1).
        mean: f64,
        /// Seed of the per-session lifetime draws.
        seed: u64,
    },
    /// Uniform integer lifetime on `[min, max]`.
    Uniform {
        /// Shortest lifetime in slots (≥ 1).
        min: u64,
        /// Longest lifetime in slots (≥ `min`).
        max: u64,
        /// Seed of the per-session lifetime draws.
        seed: u64,
    },
}

impl LifetimeSpec {
    /// The distribution's rule walk; messages start with `"lifetime:"`.
    fn check(&self) -> Rules {
        match self {
            LifetimeSpec::Fixed { slots } => ensure(*slots > 0, "slots", || {
                "lifetime: fixed lifetime must be at least 1 slot".to_string()
            }),
            LifetimeSpec::Geometric { mean, .. } => {
                ensure(mean.is_finite() && *mean >= 1.0, "mean", || {
                    format!("lifetime: geometric mean must be finite and at least 1, got {mean}")
                })
            }
            LifetimeSpec::Uniform { min, max, .. } => ensure(*min > 0 && min <= max, "min", || {
                format!("lifetime: uniform lifetime needs 1 <= min <= max, got [{min}, {max}]")
            }),
        }
    }

    /// The lifetime (in slots, ≥ 1) of the session with stable id `id` — a
    /// pure function of the spec and the id, independent of draw order.
    pub fn draw(&self, id: u64) -> u64 {
        match self {
            LifetimeSpec::Fixed { slots } => *slots,
            LifetimeSpec::Geometric { mean, seed } => {
                let mut rng = seeded(child_seed(*seed, id));
                let u: f64 = rng.gen();
                let p = 1.0 / *mean;
                if p >= 1.0 {
                    1
                } else {
                    // Inverse-CDF geometric on {1, 2, …}: u ∈ [0, 1) keeps
                    // both logs finite and the tail non-negative. `ln_1p`
                    // keeps ln(1 − p) exact for tiny p, where 1 − p
                    // rounds to 1 and its log to 0.
                    let tail = (1.0 - u).ln() / (-p).ln_1p();
                    (tail.floor() as u64).saturating_add(1)
                }
            }
            LifetimeSpec::Uniform { min, max, seed } => {
                let mut rng = seeded(child_seed(*seed, id));
                rng.gen_range(*min..=*max)
            }
        }
    }
}

json::codec!(LifetimeSpec as "churn lifetime type" {
    Fixed "fixed" { slots },
    Geometric "geometric" { mean, seed },
    Uniform "uniform" { min, max, seed },
});

/// Declarative session churn, carried by
/// [`crate::scenario::Scenario::churn`] (`"schema": 3`).
///
/// An empty spec (no arrivals, no lifetime) is bit-identical to no spec at
/// all — the churn plane is simply not attached, mirroring the empty
/// [`crate::fault::FaultPlan`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// The arrival process driving mid-run joins (`None`: nobody joins).
    pub arrivals: Option<ChurnArrivalSpec>,
    /// The [`SessionSpec`] every joiner clones (with a decorrelated seed);
    /// required with `arrivals`.
    pub template: Option<SessionSpec>,
    /// Hard cap on total joins over the horizon (bounds memory); required
    /// ≥ 1 with `arrivals`, and must stay 0 without them.
    pub max_joins: u64,
    /// Uplink weight of every joined session; required (finite, positive)
    /// when the scenario's uplink policy is weighted, meaningless (and
    /// rejected) otherwise.
    pub weight: Option<f64>,
    /// Per-session lifetime distribution (`None`: nobody departs).
    pub lifetime: Option<LifetimeSpec>,
    /// Physically evict departed sessions from the SoA arrays. Bitwise
    /// invisible in every telemetry, uplink, and CSV output (the
    /// acceptance bar of the differential suite); off, dead rows are
    /// skipped but still walked each slot.
    pub compact: bool,
}

impl ChurnSpec {
    /// An empty spec: no joins, no departures, compaction armed (it has
    /// nothing to do until churn is declared).
    pub fn new() -> ChurnSpec {
        ChurnSpec {
            arrivals: None,
            template: None,
            max_joins: 0,
            weight: None,
            lifetime: None,
            compact: true,
        }
    }

    /// Declares mid-run joins: `arrivals` decides when, `template` decides
    /// what, `max_joins` bounds how many.
    #[must_use]
    pub fn with_arrivals(
        mut self,
        arrivals: ChurnArrivalSpec,
        template: SessionSpec,
        max_joins: u64,
    ) -> ChurnSpec {
        self.arrivals = Some(arrivals);
        self.template = Some(template);
        self.max_joins = max_joins;
        self
    }

    /// Sets the uplink weight of joined sessions (required with a weighted
    /// uplink policy).
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> ChurnSpec {
        self.weight = Some(weight);
        self
    }

    /// Declares per-session lifetimes (departures).
    #[must_use]
    pub fn with_lifetime(mut self, lifetime: LifetimeSpec) -> ChurnSpec {
        self.lifetime = Some(lifetime);
        self
    }

    /// Enables or disables SoA compaction of departed sessions.
    #[must_use]
    pub fn with_compaction(mut self, compact: bool) -> ChurnSpec {
        self.compact = compact;
        self
    }

    /// `true` when the spec churns nothing at all (no arrivals, no
    /// lifetimes) — the plane is then not attached and the run is bitwise
    /// the pre-churn code path.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_none() && self.lifetime.is_none()
    }

    /// Validates the spec's internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on bad arrival/lifetime parameters, arrivals without a
    /// template or with `max_joins == 0`, a template / `max_joins` /
    /// `weight` without arrivals, a non-positive or non-finite weight, or
    /// a template that breaks a session rule (such as an `uplink_v_adapt`
    /// without a proposed controller).
    pub fn validate(&self) {
        json::enforce(self.check());
    }

    /// The spec's rule walk. Its own messages start with the offending
    /// field's name; the template's rules are the session's
    /// ([`SessionSpec`]'s walk), with the session's messages.
    fn check(&self) -> Rules {
        if let Some(arrivals) = &self.arrivals {
            arrivals.check().map_err(|b| b.under("arrivals"))?;
            ensure(self.template.is_some(), "arrivals", || {
                "arrivals: churn arrivals require a session template".to_string()
            })?;
            ensure(self.max_joins > 0, "max_joins", || {
                "max_joins: churn arrivals require max_joins >= 1".to_string()
            })?;
        } else {
            ensure(self.template.is_none(), "template", || {
                "template: a churn template requires arrivals".to_string()
            })?;
            ensure(self.max_joins == 0, "max_joins", || {
                "max_joins: max_joins without arrivals has no effect; omit it".to_string()
            })?;
            ensure(self.weight.is_none(), "weight", || {
                "weight: a churn weight requires arrivals".to_string()
            })?;
        }
        if let Some(template) = &self.template {
            template.check().map_err(|b| b.under("template"))?;
        }
        if let Some(weight) = self.weight {
            ensure(weight.is_finite() && weight > 0.0, "weight", || {
                format!("weight: churn weight must be finite and positive, got {weight}")
            })?;
        }
        match &self.lifetime {
            Some(lifetime) => lifetime.check().map_err(|b| b.under("lifetime")),
            None => Ok(()),
        }
    }

    /// Decodes a spec from its scenario-file form, turning every
    /// [`ChurnSpec::validate`] panic into a positioned error.
    ///
    /// # Errors
    ///
    /// Errors (with the offending position) on unknown or missing keys,
    /// wrong types, unknown `"type"` tags, and every consistency violation
    /// [`ChurnSpec::validate`] checks.
    pub fn from_json(v: &JsonValue) -> Result<ChurnSpec, JsonError> {
        ChurnSpec::decode(v)
    }
}

json::codec!(ChurnSpec {
    arrivals,
    template,
    max_joins: ZeroAbsent,
    weight,
    lifetime,
    compact,
} check);

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec::new()
    }
}

/// The arrival process's runtime form, sampled sequentially over slots.
#[derive(Debug)]
enum JoinSampler {
    Poisson(PoissonArrivals),
    Mmpp(Mmpp2),
    Trace(Vec<u64>),
}

impl JoinSampler {
    fn build(spec: &ChurnArrivalSpec) -> JoinSampler {
        match spec {
            ChurnArrivalSpec::Poisson { lambda, seed } => {
                JoinSampler::Poisson(PoissonArrivals::new(*lambda, *seed))
            }
            ChurnArrivalSpec::Mmpp2 {
                lambda_low,
                lambda_high,
                switch_up,
                switch_down,
                seed,
            } => JoinSampler::Mmpp(Mmpp2::new(
                *lambda_low,
                *lambda_high,
                *switch_up,
                *switch_down,
                *seed,
            )),
            ChurnArrivalSpec::Trace { counts } => JoinSampler::Trace(counts.clone()),
        }
    }

    /// Joins due at `slot`. Poisson/MMPP counts are integer-valued floats,
    /// so the cast is exact.
    fn count(&mut self, slot: u64) -> u64 {
        match self {
            JoinSampler::Poisson(p) => p.sample(slot) as u64,
            JoinSampler::Mmpp(m) => m.sample(slot) as u64,
            JoinSampler::Trace(counts) => counts[(slot as usize) % counts.len()],
        }
    }
}

/// The churn plane's runtime state: the full join/departure schedule,
/// precomputed from a [`ChurnSpec`] as a pure function of the spec — no
/// stepping-order, chunking, or threading dependence is possible because
/// the schedule exists before the first slot runs.
#[derive(Debug)]
pub struct ChurnPlane {
    /// `(join slot, joiner spec)`, ascending by slot (construction order).
    joins: Vec<(u64, SessionSpec)>,
    join_cursor: usize,
    /// `(death slot, stable session id)`, sorted ascending.
    deaths: Vec<(u64, u64)>,
    death_cursor: usize,
    weight: Option<f64>,
    compact: bool,
    horizon: u64,
    compacted_rows: u64,
}

impl ChurnPlane {
    /// Precomputes the full churn schedule for `scenario`.
    ///
    /// Joins: the arrival process is sampled sequentially over slots
    /// `0..horizon`, and joiner `j` clones the template with seed
    /// `child_seed(template.seed, j)`; sampling stops once `max_joins`
    /// sessions have joined. Departures: session id `i` (initial fleet
    /// `0..n`, then joiners in join order) dies at
    /// `birth(i) + lifetime.draw(i)` when that lands inside the horizon.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec (see [`ChurnSpec::validate`]).
    pub fn new(spec: &ChurnSpec, scenario: &Scenario) -> ChurnPlane {
        spec.validate();
        let horizon = scenario.slots;
        let n0 = scenario.sessions.len() as u64;
        let mut joins = Vec::new();
        if let (Some(arrivals), Some(template)) = (&spec.arrivals, &spec.template) {
            let mut sampler = JoinSampler::build(arrivals);
            let mut j: u64 = 0;
            'slots: for slot in 0..horizon {
                let due = sampler.count(slot);
                for _ in 0..due {
                    if j >= spec.max_joins {
                        break 'slots;
                    }
                    let mut joiner = template.clone();
                    joiner.seed = child_seed(template.seed, j);
                    joins.push((slot, joiner));
                    j += 1;
                }
            }
        }
        let mut deaths = Vec::new();
        if let Some(lifetime) = &spec.lifetime {
            let total = n0 + joins.len() as u64;
            for id in 0..total {
                let birth = if id < n0 {
                    0
                } else {
                    joins[(id - n0) as usize].0
                };
                let death = birth.saturating_add(lifetime.draw(id));
                if death < horizon {
                    deaths.push((death, id));
                }
            }
            deaths.sort_unstable();
        }
        ChurnPlane {
            joins,
            join_cursor: 0,
            deaths,
            death_cursor: 0,
            weight: spec.weight,
            compact: spec.compact,
            horizon,
            compacted_rows: 0,
        }
    }

    /// Applies the slot's churn to `batch` (departures first, then joins,
    /// then amortized compaction) — call once per slot, *before*
    /// [`SharedUplink::step_slot`]. A joiner gets a [`SummarySink`] over
    /// the residual horizon, exactly like a fresh fixed-N session of that
    /// length (the `run_contended` path), and its weight is registered
    /// with the uplink so weighted policies and the degradation guard's
    /// groups follow the fleet.
    pub fn step_summary(
        &mut self,
        batch: &mut SessionBatch<SummarySink>,
        uplink: &mut SharedUplink,
    ) {
        let slot = batch.slot();
        while self
            .deaths
            .get(self.death_cursor)
            .is_some_and(|&(at, _)| at <= slot)
        {
            let (_, id) = self.deaths[self.death_cursor];
            self.death_cursor += 1;
            batch.crash_session(id as usize, CrashPolicy::Permanent, 0);
        }
        while self
            .joins
            .get(self.join_cursor)
            .is_some_and(|&(at, _)| at <= slot)
        {
            let (_, spec) = &self.joins[self.join_cursor];
            batch.spawn_at(spec, SummarySink::new(spec.warmup, self.horizon - slot));
            uplink.register_join(self.weight);
            self.join_cursor += 1;
        }
        // Deterministic amortized trigger. The *timing* cannot matter —
        // the batch's logical view makes compaction bitwise invisible —
        // so the trigger only trades walk cost against copy cost.
        if self.compact {
            let dead = batch.dead_rows();
            if dead >= 64 || dead * 4 >= batch.len().max(1) {
                self.compacted_rows += batch.compact() as u64;
            }
        }
    }

    /// The precomputed join schedule: `(join slot, joiner spec)` ascending.
    pub fn join_schedule(&self) -> &[(u64, SessionSpec)] {
        &self.joins
    }

    /// The precomputed departure schedule: `(death slot, session id)`
    /// ascending.
    pub fn departure_schedule(&self) -> &[(u64, u64)] {
        &self.deaths
    }

    /// Rows physically evicted by compaction so far.
    pub fn compacted_rows(&self) -> u64 {
        self.compacted_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use arvis_quality::DepthProfile;

    fn template() -> SessionSpec {
        let profile = DepthProfile::from_parts(5, vec![100.0, 400.0], vec![0.0, 1.0]);
        let base = ExperimentConfig::new(profile, 500.0, 64);
        SessionSpec::from_config(&base, ControllerSpec::Proposed { v: 1e6 })
    }

    fn scenario(slots: u64, sessions: usize) -> Scenario {
        let mut s = Scenario::new(slots);
        for _ in 0..sessions {
            s.sessions.push(template());
        }
        s
    }

    #[test]
    fn empty_spec_is_empty_and_valid() {
        let spec = ChurnSpec::new();
        assert!(spec.is_empty());
        spec.validate();
        let plane = ChurnPlane::new(&spec, &scenario(100, 2));
        assert!(plane.join_schedule().is_empty());
        assert!(plane.departure_schedule().is_empty());
    }

    #[test]
    fn join_schedule_is_deterministic_and_capped() {
        let spec = ChurnSpec::new().with_arrivals(
            ChurnArrivalSpec::Poisson {
                lambda: 0.5,
                seed: 9,
            },
            template(),
            5,
        );
        let sc = scenario(200, 2);
        let a = ChurnPlane::new(&spec, &sc);
        let b = ChurnPlane::new(&spec, &sc);
        assert!(a.join_schedule().len() <= 5);
        assert_eq!(
            a.join_schedule()
                .iter()
                .map(|(slot, s)| (*slot, s.seed))
                .collect::<Vec<_>>(),
            b.join_schedule()
                .iter()
                .map(|(slot, s)| (*slot, s.seed))
                .collect::<Vec<_>>(),
        );
        // Joiner seeds are decorrelated children of the template seed.
        for (j, (_, joiner)) in a.join_schedule().iter().enumerate() {
            assert_eq!(joiner.seed, child_seed(template().seed, j as u64));
        }
    }

    #[test]
    fn trace_arrivals_cycle_and_respect_the_cap() {
        let spec = ChurnSpec::new().with_arrivals(
            ChurnArrivalSpec::Trace {
                counts: vec![1, 0, 0, 0],
            },
            template(),
            100,
        );
        let plane = ChurnPlane::new(&spec, &scenario(12, 1));
        let slots: Vec<u64> = plane.join_schedule().iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![0, 4, 8], "one join per 4-slot cycle");
    }

    #[test]
    fn lifetime_draws_are_pure_functions_of_the_id() {
        let life = LifetimeSpec::Geometric {
            mean: 40.0,
            seed: 3,
        };
        for id in 0..50u64 {
            let a = life.draw(id);
            assert!(a >= 1);
            assert_eq!(a, life.draw(id), "id {id} draw must be reproducible");
        }
        let fixed = LifetimeSpec::Fixed { slots: 7 };
        assert_eq!(fixed.draw(0), 7);
        let uniform = LifetimeSpec::Uniform {
            min: 3,
            max: 9,
            seed: 11,
        };
        for id in 0..50u64 {
            let d = uniform.draw(id);
            assert!((3..=9).contains(&d));
        }
    }

    #[test]
    fn geometric_lifetimes_keep_their_mean_when_p_is_tiny() {
        // p = 1e-17 is below 2^-54, where 1 − p rounds to 1.
        let mean = 1e17;
        let life = LifetimeSpec::Geometric { mean, seed: 5 };
        let n = 10_000u64;
        let sample_mean = (0..n).map(|id| life.draw(id) as f64).sum::<f64>() / n as f64;
        assert!(
            (sample_mean / mean - 1.0).abs() < 0.05,
            "sample mean {sample_mean:e}"
        );
    }

    #[test]
    fn departures_cover_initial_fleet_and_joiners() {
        let spec = ChurnSpec::new()
            .with_arrivals(ChurnArrivalSpec::Trace { counts: vec![1] }, template(), 4)
            .with_lifetime(LifetimeSpec::Fixed { slots: 10 });
        let plane = ChurnPlane::new(&spec, &scenario(100, 3));
        assert_eq!(plane.join_schedule().len(), 4);
        // Initial ids 0..3 die at 10; joiners (slots 0..4) die 10 after.
        let mut expected: Vec<(u64, u64)> = (0..3u64).map(|id| (10, id)).collect();
        for (j, (slot, _)) in plane.join_schedule().iter().enumerate() {
            expected.push((slot + 10, 3 + j as u64));
        }
        expected.sort_unstable();
        assert_eq!(plane.departure_schedule(), &expected[..]);
    }

    #[test]
    #[should_panic(expected = "max_joins")]
    fn arrivals_without_max_joins_panic() {
        ChurnSpec::new()
            .with_arrivals(
                ChurnArrivalSpec::Poisson {
                    lambda: 1.0,
                    seed: 0,
                },
                template(),
                0,
            )
            .validate();
    }

    #[test]
    #[should_panic(expected = "weight: a churn weight requires arrivals")]
    fn weight_without_arrivals_panics() {
        ChurnSpec::new().with_weight(2.0).validate();
    }

    #[test]
    fn codec_round_trips_and_positions_errors() {
        let spec = ChurnSpec::new()
            .with_arrivals(
                ChurnArrivalSpec::Mmpp2 {
                    lambda_low: 0.01,
                    lambda_high: 0.5,
                    switch_up: 0.05,
                    switch_down: 0.2,
                    seed: 42,
                },
                template(),
                8,
            )
            .with_weight(1.5)
            .with_lifetime(LifetimeSpec::Uniform {
                min: 20,
                max: 200,
                seed: 5,
            });
        let text = json::to_string(&spec).unwrap();
        let back = ChurnSpec::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(json::to_string(&back).unwrap(), text, "canonical");
        assert_eq!(back.max_joins, 8);
        assert_eq!(back.weight, Some(1.5));

        // A bad cross-field combination decodes to a positioned error.
        let bad = "{\"max_joins\": 3, \"compact\": true}";
        let err = ChurnSpec::from_json(&crate::json::parse(bad).unwrap()).unwrap_err();
        assert!(err.msg.contains("max_joins"), "{}", err.msg);
        assert!(err.pos.is_some());
    }
}
