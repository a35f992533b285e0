//! # arvis-core — quality-aware real-time AR visualization under delay constraints
//!
//! The paper's primary contribution: a Lyapunov drift-plus-penalty scheduler
//! that picks, each time slot, the octree depth `d*(t)` used to visualize the
//! next point-cloud frame,
//!
//! ```text
//! d*(t) = argmax_{d ∈ R} [ V · p_a(d) − Q(t) · a(d) ]        (paper Eq. 3)
//! ```
//!
//! maximizing time-average visual quality subject to the stability of the
//! visualization queue `Q(t)`.
//!
//! ## Layout
//!
//! - [`controller`]: the proposed scheduler (Algorithm 1) and all baselines
//!   (only-max-depth, only-min-depth, fixed, random, queue-threshold,
//!   adaptive-V), behind the open [`DepthController`] trait;
//! - [`scenario`]: declarative descriptions of N heterogeneous sessions
//!   ([`Scenario`], [`scenario::SessionSpec`], enum-dispatched
//!   [`scenario::ControllerSpec`]), storable as JSON scenario files
//!   (see below), with builders for the evaluation's workloads — the
//!   multi-device fleet ([`Scenario::fleet`]) and the `V` and
//!   service-rate sweeps ([`Scenario::v_sweep`], [`Scenario::rate_sweep`]);
//! - [`json`]: the self-contained JSON layer behind scenario files — a
//!   strict parser with line/column errors into a tree that borrows from
//!   its input, one canonical printer ([`json::Emitter`]) with exact
//!   `f64`/`u64` round-trips, and the [`json::Codec`] each scenario-file
//!   and ledger type derives from one field table;
//! - [`hash`]: dependency-free SHA-256 (FIPS 180-4) content-addressing the
//!   canonical scenario bytes ([`Scenario::content_hash`]), which the
//!   printer streams into it without building the text;
//! - [`ledger`]: the append-only regression ledger — bit-exact
//!   [`ledger::RunRecord`]s keyed by (scenario hash, code version),
//!   committed as `results/ledger.json` and re-verified field-by-field in
//!   CI (`experiments verify`);
//! - [`session`]: the runtime — thousands of sessions stepped as one
//!   struct-of-arrays [`SessionBatch`] through one slot kernel, fanned out
//!   over `arvis_par`;
//! - [`uplink`]: the shared-uplink contention plane — M sessions' per-slot
//!   service demands admitted against a time-varying backhaul budget
//!   ([`uplink::BudgetProfile`]: constant / diurnal / piecewise steps /
//!   trace) by a pluggable [`uplink::UplinkPolicy`] (unconstrained /
//!   proportional-share / max-weight-backlog / weighted-max-weight /
//!   α-fair), riding on the slot-major batch stepping, with optional
//!   uplink-aware Lyapunov-`V` adaptation ([`uplink::UplinkVAdaptSpec`]);
//! - [`fault`]: the deterministic fault-injection plane — uplink
//!   outage/brownout windows, per-session grant loss on dedicated RNG
//!   streams, session crash/restart (cold / warm / permanent), and a
//!   [`fault::DegradationGuardSpec`] admission guard that sheds the
//!   lowest-weight tenants under sustained contention, all declared in
//!   schema-2 scenario files and replayed bit-identically;
//! - [`churn`]: the open-loop session-churn plane — arrivals-driven
//!   mid-run joins ([`churn::ChurnArrivalSpec`]: Poisson / MMPP-2 / trace
//!   on dedicated seeded streams), per-session lifetime distributions
//!   ([`churn::LifetimeSpec`]), and SoA slot compaction
//!   ([`SessionBatch::compact`]) that physically evicts departed sessions
//!   while stable session ids keep telemetry, uplink weights, and CSV
//!   rows coherent — declared in schema-3 scenario files, replayed
//!   bit-identically, and bitwise invariant to compaction on/off;
//! - [`telemetry`]: pluggable [`telemetry::TelemetrySink`]s (full trace,
//!   streaming summary-only, CSV) and the shared CSV helpers;
//! - [`stream`]: AR frame sources feeding per-slot depth profiles;
//! - [`experiment`]: the single-run configuration and result, and
//!   [`Experiment::run`], a one-session batch run under a caller-defined
//!   [`DepthController`].
//!
//! ## Example: a heterogeneous session batch
//!
//! ```
//! use arvis_core::scenario::{ControllerSpec, Scenario, SessionSpec};
//! use arvis_core::session::SessionBatch;
//! use arvis_core::experiment::{ExperimentConfig, ServiceSpec};
//! use arvis_quality::DepthProfile;
//!
//! // A synthetic per-depth profile: arrivals quadruple, quality saturates.
//! let profile = DepthProfile::from_parts(
//!     5,
//!     vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
//!     vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
//! );
//! let base = ExperimentConfig::new(profile, 2_000.0, 400).with_controller_v(1e7);
//!
//! // 32 sessions: the proposed scheduler on devices of varying capacity,
//! // plus one max-depth control session.
//! let mut scenario = Scenario::replicated(
//!     &base,
//!     ControllerSpec::Proposed { v: base.controller_v },
//!     32,
//! );
//! for (i, spec) in scenario.sessions.iter_mut().enumerate() {
//!     spec.service = ServiceSpec::Constant(1_800.0 + 50.0 * i as f64);
//! }
//! scenario = scenario.with_session(SessionSpec::from_config(&base, ControllerSpec::OnlyMax));
//!
//! // Step all 33 sessions through every slot with O(sessions) memory.
//! let mut batch = SessionBatch::summary_only(&scenario);
//! batch.run();
//! let summaries = batch.into_summaries();
//! assert!(summaries[..32].iter().all(|s| s.stable), "proposed stabilizes");
//! assert!(!summaries[32].stable, "only-max-depth diverges");
//! assert!(summaries[0].backlog_p99 >= summaries[0].mean_backlog);
//! ```
//!
//! A caller-defined controller runs through the single-run API:
//!
//! ```
//! use arvis_core::controller::ProposedDpp;
//! use arvis_core::experiment::{Experiment, ExperimentConfig};
//! use arvis_quality::DepthProfile;
//!
//! let profile = DepthProfile::from_parts(
//!     5,
//!     vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
//!     vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
//! );
//! let config = ExperimentConfig::new(profile, 2_000.0, 800)
//!     .with_controller_v(1e7)
//!     .with_seed(1);
//! let result = Experiment::new(config).run(&mut ProposedDpp::default());
//! assert!(result.backlog.is_stable(400, 1e-3));
//! ```
//!
//! ## Scenario files
//!
//! Every [`Scenario`] — all controllers, services, streams, uplink
//! budgets/policies, the uplink-aware `V` knob, the fault plan and the
//! churn spec — round-trips through a versioned JSON file: [`Scenario::to_json_string`]
//! / [`Scenario::from_json_str`]. The `experiments` binary runs them
//! directly (`experiments run scenario.json`), and the golden suite in
//! `tests/scenario_files.rs` pins that a file replays **bit-identically**
//! to the same scenario built in Rust.
//!
//! The format (schema versions 1–3; every object rejects unknown keys,
//! and all errors carry line/column):
//!
//! ```json
//! {
//!   "schema": 1,                    // required; this build reads 1 through 3
//!   "slots": 800,                   // shared horizon
//!   "sessions": [
//!     {
//!       "stream": {                 // "constant" | "cycle" | "modulated"
//!         "type": "constant",
//!         "profile": {              // the per-depth table of Fig. 2
//!           "min_depth": 5,
//!           "arrivals": [100, 400, 1600, 6400, 25600, 102400],
//!           "quality": [0, 0.2, 0.4, 0.6, 0.8, 1]
//!         }
//!       },
//!       "service": {                // "constant" | "jittered" | "duty_cycled"
//!         "type": "constant",
//!         "rate": 2000
//!       },
//!       "controller": {             // "proposed" | "only_max" | "only_min" |
//!         "type": "proposed",       // "fixed" | "random" | "threshold" |
//!         "v": 10000000             // "adaptive_v"
//!       },
//!       "seed": 7,                  // exact u64 (integers stay exact)
//!       "warmup": 200,
//!       "queue_capacity": 50000,    // optional; omit for an infinite queue
//!       "frame_cap": 8192,          // optional latency-tracker bound
//!       "uplink_v_adapt": {         // optional; requires "proposed"
//!         "low": 0.85, "high": 0.95, "step": 0.05, "min_v_scale": 0.01
//!       }
//!     }
//!   ],
//!   "uplink": {                     // optional shared-uplink contention
//!     "budget": {                   // "constant" | "diurnal" |
//!       "type": "diurnal",          // "piecewise_steps" | "trace"
//!       "mean": 9600, "amplitude": 7200, "period": 200, "phase": 0
//!     },
//!     "policy": {                   // "unconstrained" | "proportional_share" |
//!       "type": "alpha_fair",       // "max_weight_backlog" |
//!       "alpha": 2                  // "weighted_max_weight" | "alpha_fair"
//!     }
//!   },
//!   "fault": {                      // optional; requires "schema": 2
//!     "events": [
//!       { "type": "outage", "start": 800, "slots": 60 },
//!       { "type": "brownout", "start": 200, "slots": 80, "factor": 0.5 },
//!       { "type": "grant_loss", "session": 2, "p": 0.05, "seed": 77 },
//!       { "type": "session_crash", "session": 3, "slot": 400,
//!         "restart_after": 120,     // omit with "policy": "permanent"
//!         "policy": "cold_restart" }// | "warm_restart" | "permanent"
//!     ],
//!     "guard": {                    // optional degradation guard
//!       "ema_alpha": 0.05, "engage_above": 0.9, "release_below": 0.6,
//!       "backlog_limit": "inf", "shed_fraction": 0.25,
//!       "mode": { "type": "defer" } // | { "type": "clamp", "factor": … }
//!     }
//!   },
//!   "churn": {                      // optional; requires "schema": 3
//!     "arrivals": {                 // "poisson" | "mmpp2" | "trace"
//!       "type": "poisson", "lambda": 0.05, "seed": 11
//!     },
//!     "template": { "...": "a session spec, cloned per joiner" },
//!     "max_joins": 12,              // required with "arrivals"
//!     "weight": 1,                  // required iff the uplink is weighted
//!     "lifetime": {                 // "fixed" | "geometric" | "uniform"
//!       "type": "geometric", "mean": 500, "seed": 13
//!     },
//!     "compact": true               // evict departed SoA rows (bitwise no-op)
//!   }
//! }
//! ```
//!
//! **Versioning / migration.** Schema 2 adds the optional `"fault"`
//! member — see [`fault`] for the event semantics and the determinism
//! contract (faulted replays are bit-identical; an empty plan is bitwise
//! the fault-free path; a cold restart's trajectory is bitwise a fresh
//! session over the residual horizon). Schema 3 (this build) adds the
//! optional `"churn"` member — see [`churn`]: joiner trajectories are
//! bitwise fresh sessions over the residual horizon (the cold-restart
//! construction), a churned file replays bit-identically including
//! mid-run joins, and `"compact"` never changes a single output bit.
//! Emission always uses the lowest schema version that can express the
//! scenario, and this build *reads* versions 1 through 3, so every
//! schema-1/2 file parses unchanged and fault-free (or churn-free)
//! emission stays byte-identical with older builds. To migrate, bump
//! `"schema"` to 3 and add the `"churn"` member — declaring `"churn"` at
//! a lower `"schema"` (like `"fault"` at `"schema": 1`) is a positioned
//! error, so stale version stamps cannot smuggle new surfaces past older
//! readers.
//!
//! Floats print in shortest round-trip form and parse back bit-identically;
//! the infinite budget / max-min `alpha` encode as the string `"inf"`
//! (bare `Infinity`/`NaN` literals are parse errors). Emission is
//! canonical — `emit → parse → emit` is byte-identical — so files diff
//! cleanly under version control:
//!
//! ```
//! use arvis_core::scenario::{ControllerSpec, Scenario};
//! use arvis_core::experiment::ExperimentConfig;
//! use arvis_quality::DepthProfile;
//!
//! let profile = DepthProfile::from_parts(
//!     5,
//!     vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
//!     vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
//! );
//! let base = ExperimentConfig::new(profile, 2_000.0, 400);
//! let scenario = Scenario::replicated(&base, ControllerSpec::Proposed { v: 1e7 }, 4);
//!
//! let text = scenario.to_json_string().unwrap();
//! let back = Scenario::from_json_str(&text).unwrap();
//! assert_eq!(back.to_json_string().unwrap(), text, "canonical round-trip");
//! assert_eq!(back.len(), 4);
//!
//! // Malformed input errors carry line/column, and never panic.
//! let err = Scenario::from_json_str("{\n  \"schema\": 1,\n  \"slots\": }\n").unwrap_err();
//! assert_eq!(err.pos.unwrap().line, 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod controller;
pub mod energy;
pub mod experiment;
pub mod fault;
pub mod hash;
pub mod json;
pub mod ledger;
pub mod pipeline;
#[cfg(test)]
mod reference;
pub mod scenario;
pub mod session;
pub mod stream;
pub mod telemetry;
pub mod uplink;

pub use churn::{ChurnArrivalSpec, ChurnPlane, ChurnSpec, LifetimeSpec};
pub use controller::{DepthController, ProposedDpp};
pub use experiment::{Experiment, ExperimentConfig, ExperimentResult};
pub use fault::{CrashPolicy, DegradationGuardSpec, FaultEvent, FaultPlan, FaultPlane, ShedMode};
pub use ledger::{Ledger, RunRecord};
pub use scenario::{ControllerSpec, Scenario, SessionSpec};
pub use session::{SessionBatch, SlotOutcome};
pub use telemetry::{FullTrace, SessionSummary, SummarySink, TelemetrySink};
pub use uplink::{BudgetProfile, SharedUplink, UplinkPolicy, UplinkSpec, UplinkVAdaptSpec};
