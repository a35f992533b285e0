//! Declarative scenarios: everything a session needs, as plain data.
//!
//! A [`Scenario`] is a serde-annotated description of N heterogeneous AR
//! sessions — stream, service model, controller, seed, queue bounds per
//! session plus one shared horizon: one value that can be stored, diffed,
//! and handed to the [`crate::session::SessionBatch`] runtime. Its
//! builders cover the evaluation's workloads: one run
//! ([`Scenario::single`]), the multi-device fleet ([`Scenario::fleet`])
//! and the `V` and service-rate sweeps ([`Scenario::v_sweep`],
//! [`Scenario::rate_sweep`]).
//!
//! Controllers are described by [`ControllerSpec`], a closed enum that the
//! hot loop dispatches with a `match` instead of a `Box<dyn>` virtual call.
//! A user-defined [`crate::controller::DepthController`] runs through
//! [`crate::experiment::Experiment::run`].

use serde::{Deserialize, Serialize};

use arvis_sim::rng::child_seed;

use crate::churn::ChurnSpec;
use crate::controller::{
    AdaptiveDpp, DepthController, FixedDepth, MaxDepth, MinDepth, ProposedDpp, QueueThreshold,
    RandomDepth,
};
use crate::experiment::{ExperimentConfig, ServiceSpec};
use crate::fault::{FaultEvent, FaultPlan};
use crate::json::{self, ensure, Codec, Emit, Emitter, JsonError, JsonValue, Rules};
use crate::stream::ArStream;
use crate::uplink::{UplinkPolicy, UplinkSpec};

/// The newest scenario-file schema version this build reads and writes
/// (the required top-level `"schema"` field). Bump on any
/// backwards-incompatible change to the file format so old binaries fail
/// loudly instead of misreading new files.
///
/// Version history: 1 = the original format; 2 = adds the optional
/// top-level `"fault"` plan ([`crate::fault::FaultPlan`]); 3 = adds the
/// optional top-level `"churn"` spec ([`crate::churn::ChurnSpec`]).
/// Version-1 and version-2 files parse unchanged, and emission stays at
/// the lowest version that can express the scenario (1 without fault or
/// churn, 2 with only a fault plan) — so existing files are bitwise
/// backwards-compatible both ways.
pub const SCENARIO_SCHEMA_VERSION: u64 = 3;

/// Declarative description of a per-slot depth-selection policy.
///
/// Building ([`ControllerSpec::build`]) yields a [`BuiltController`] whose
/// hot-loop dispatch is a `match` over this closed set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ControllerSpec {
    /// The proposed Lyapunov scheduler (Algorithm 1) with trade-off `v`.
    Proposed {
        /// The quality/backlog trade-off coefficient `V` of Eq. (3).
        v: f64,
    },
    /// Always the maximum candidate depth ("only max-Depth").
    OnlyMax,
    /// Always the minimum candidate depth ("only min-Depth").
    OnlyMin,
    /// A fixed depth, clamped into the candidate range.
    Fixed {
        /// The depth to hold.
        depth: u8,
    },
    /// Uniformly random depth each slot.
    Random {
        /// RNG seed of the policy's own stream.
        seed: u64,
    },
    /// Hand-tuned backlog thresholds (one depth level per crossing).
    Threshold {
        /// Ascending backlog thresholds.
        thresholds: Vec<f64>,
    },
    /// The proposed scheduler with online-adapted `V`.
    AdaptiveV {
        /// Starting `V`.
        initial_v: f64,
        /// Backlog level the adaptation regulates around.
        target_backlog: f64,
    },
}

impl ControllerSpec {
    /// Builds the runnable controller state for one session.
    ///
    /// # Panics
    ///
    /// Propagates the constructor panics of the underlying policies
    /// (negative `v`, empty/unsorted thresholds).
    pub fn build(&self) -> BuiltController {
        match self {
            ControllerSpec::Proposed { v } => BuiltController::Proposed(ProposedDpp::new(*v)),
            ControllerSpec::OnlyMax => BuiltController::Max(MaxDepth),
            ControllerSpec::OnlyMin => BuiltController::Min(MinDepth),
            ControllerSpec::Fixed { depth } => BuiltController::Fixed(FixedDepth::new(*depth)),
            ControllerSpec::Random { seed } => BuiltController::Random(RandomDepth::new(*seed)),
            ControllerSpec::Threshold { thresholds } => {
                BuiltController::Threshold(QueueThreshold::new(thresholds.clone()))
            }
            ControllerSpec::AdaptiveV {
                initial_v,
                target_backlog,
            } => BuiltController::Adaptive(AdaptiveDpp::new(*initial_v, *target_backlog)),
        }
    }

    /// The fixed trade-off coefficient `V` of a
    /// [`ControllerSpec::Proposed`] spec, `None` for every other policy —
    /// the base value uplink-aware `V` adaptation
    /// ([`SessionSpec::uplink_v_adapt`]) scales around.
    pub fn proposed_v(&self) -> Option<f64> {
        match self {
            ControllerSpec::Proposed { v } => Some(*v),
            _ => None,
        }
    }

    /// The spec's rule walk: the controller constructors' invariants
    /// (non-negative `v`, positive adaptive targets, non-empty
    /// strictly-ascending thresholds).
    pub(crate) fn check(&self) -> Rules {
        match self {
            ControllerSpec::Proposed { v } => {
                ensure(*v >= 0.0, "v", || format!("v must be >= 0, got {v}"))
            }
            ControllerSpec::Threshold { thresholds } => {
                ensure(!thresholds.is_empty(), "thresholds", || {
                    "need at least one threshold".to_string()
                })?;
                ensure(
                    thresholds.windows(2).all(|w| w[0] < w[1]),
                    "thresholds",
                    || "thresholds must be strictly ascending".to_string(),
                )
            }
            ControllerSpec::AdaptiveV {
                initial_v,
                target_backlog,
            } => {
                ensure(*initial_v > 0.0, "initial_v", || {
                    format!("initial V must be > 0, got {initial_v}")
                })?;
                ensure(*target_backlog > 0.0, "target_backlog", || {
                    format!("target backlog must be > 0, got {target_backlog}")
                })
            }
            ControllerSpec::OnlyMax
            | ControllerSpec::OnlyMin
            | ControllerSpec::Fixed { .. }
            | ControllerSpec::Random { .. } => Ok(()),
        }
    }
}

json::codec!(ControllerSpec as "controller type" {
    Proposed "proposed" { v },
    OnlyMax "only_max",
    OnlyMin "only_min",
    Fixed "fixed" { depth },
    Random "random" { seed },
    Threshold "threshold" { thresholds },
    AdaptiveV "adaptive_v" { initial_v, target_backlog },
} check);

/// Runnable controller state: the closed enum the session hot loop
/// dispatches with a `match`.
pub enum BuiltController {
    /// [`ProposedDpp`] state.
    Proposed(ProposedDpp),
    /// [`MaxDepth`] state.
    Max(MaxDepth),
    /// [`MinDepth`] state.
    Min(MinDepth),
    /// [`FixedDepth`] state.
    Fixed(FixedDepth),
    /// [`RandomDepth`] state.
    Random(RandomDepth),
    /// [`QueueThreshold`] state.
    Threshold(QueueThreshold),
    /// [`AdaptiveDpp`] state.
    Adaptive(AdaptiveDpp),
}

impl BuiltController {
    /// Replaces the Lyapunov trade-off `V` of a
    /// [`BuiltController::Proposed`] controller; a no-op for every other
    /// policy. The hook the uplink-aware `V` adaptation
    /// ([`crate::uplink::UplinkVAdaptSpec`]) drives each contended slot.
    pub fn set_v(&mut self, v: f64) {
        if let BuiltController::Proposed(c) = self {
            c.set_v(v);
        }
    }
}

impl DepthController for BuiltController {
    fn select_depth(
        &mut self,
        slot: u64,
        backlog: f64,
        profile: &arvis_quality::DepthProfile,
    ) -> u8 {
        match self {
            BuiltController::Proposed(c) => c.select_depth(slot, backlog, profile),
            BuiltController::Max(c) => c.select_depth(slot, backlog, profile),
            BuiltController::Min(c) => c.select_depth(slot, backlog, profile),
            BuiltController::Fixed(c) => c.select_depth(slot, backlog, profile),
            BuiltController::Random(c) => c.select_depth(slot, backlog, profile),
            BuiltController::Threshold(c) => c.select_depth(slot, backlog, profile),
            BuiltController::Adaptive(c) => c.select_depth(slot, backlog, profile),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            BuiltController::Proposed(c) => c.name(),
            BuiltController::Max(c) => c.name(),
            BuiltController::Min(c) => c.name(),
            BuiltController::Fixed(c) => c.name(),
            BuiltController::Random(c) => c.name(),
            BuiltController::Threshold(c) => c.name(),
            BuiltController::Adaptive(c) => c.name(),
        }
    }
}

impl std::fmt::Debug for BuiltController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BuiltController({})", self.name())
    }
}

/// Everything one session needs: frame source, device model, policy,
/// seed and queue bounds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSpec {
    /// The frame source feeding per-slot depth profiles.
    pub stream: ArStream,
    /// The device's service model.
    pub service: ServiceSpec,
    /// The per-slot depth policy.
    pub controller: ControllerSpec,
    /// RNG seed for the session's stochastic components.
    pub seed: u64,
    /// Optional finite queue capacity.
    pub queue_capacity: Option<f64>,
    /// Slots excluded from time-average metrics.
    pub warmup: u64,
    /// Optional bound on the latency tracker's in-flight frame records
    /// (see `FifoLatencyTracker::with_max_in_flight`): a diverging
    /// session's memory stays O(cap) at the price of coarsened (merged,
    /// upper-bounded) frame latencies once the backlog exceeds the cap.
    /// `None` (the default) keeps exact per-frame accounting.
    pub frame_cap: Option<usize>,
    /// Optional uplink-aware `V` adaptation (see
    /// [`crate::uplink::UplinkVAdaptSpec`]): when the session is stepped
    /// through the shared-uplink contention plane, it observes its
    /// grant/demand ratio each slot and scales its Lyapunov `V` with a
    /// bounded multiplicative update, shedding quality instead of
    /// diverging when the link saturates. Requires a
    /// [`ControllerSpec::Proposed`] controller (the knob scales that
    /// controller's `V`); uncoupled runs never engage it.
    pub uplink_v_adapt: Option<crate::uplink::UplinkVAdaptSpec>,
}

impl SessionSpec {
    /// Derives a spec from a legacy [`ExperimentConfig`] plus a policy.
    pub fn from_config(cfg: &ExperimentConfig, controller: ControllerSpec) -> SessionSpec {
        SessionSpec {
            stream: cfg.stream.clone(),
            service: cfg.service,
            controller,
            seed: cfg.seed,
            queue_capacity: cfg.queue_capacity,
            warmup: cfg.warmup,
            frame_cap: None,
            uplink_v_adapt: None,
        }
    }

    /// Enables uplink-aware `V` adaptation for this session (see
    /// [`SessionSpec::uplink_v_adapt`]).
    #[must_use]
    pub fn with_uplink_v_adapt(mut self, adapt: crate::uplink::UplinkVAdaptSpec) -> SessionSpec {
        self.uplink_v_adapt = Some(adapt);
        self
    }

    /// The spec's rule walk: its stream's, service's and controller's own
    /// rules, a non-negative queue capacity, a positive `frame_cap`, and a
    /// valid `uplink_v_adapt` knob with a `proposed` controller of `v > 0`
    /// to scale.
    pub(crate) fn check(&self) -> Rules {
        self.stream.check().map_err(|b| b.under("stream"))?;
        self.service.check().map_err(|b| b.under("service"))?;
        self.controller.check().map_err(|b| b.under("controller"))?;
        if let Some(capacity) = self.queue_capacity {
            ensure(capacity >= 0.0, "queue_capacity", || {
                format!("queue_capacity must be >= 0, got {capacity}")
            })?;
        }
        ensure(self.frame_cap != Some(0), "frame_cap", || {
            "frame_cap must be positive".to_string()
        })?;
        if let Some(adapt) = &self.uplink_v_adapt {
            adapt.check().map_err(|b| b.under("uplink_v_adapt"))?;
            match self.controller.proposed_v() {
                Some(v) => ensure(v > 0.0, "uplink_v_adapt", || {
                    format!("uplink_v_adapt requires v > 0 on the proposed controller, got {v}")
                })?,
                None => ensure(false, "uplink_v_adapt", || {
                    "uplink_v_adapt requires a proposed controller \
                     (the adaptation scales its V)"
                        .to_string()
                })?,
            }
        }
        Ok(())
    }
}

json::codec!(SessionSpec {
    stream,
    service,
    controller,
    seed,
    warmup,
    queue_capacity,
    frame_cap,
    uplink_v_adapt,
} check);

/// A declarative multi-session workload: N session specs sharing one slot
/// horizon, optionally coupled through a shared uplink.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of slots every session simulates.
    pub slots: u64,
    /// The sessions, in batch order.
    pub sessions: Vec<SessionSpec>,
    /// Optional shared-uplink contention: when set, the sessions' per-slot
    /// service demands are admitted against one backhaul budget by the
    /// spec's policy (see [`crate::uplink`]) instead of being served
    /// independently. `None` keeps the sessions uncoupled.
    pub uplink: Option<crate::uplink::UplinkSpec>,
    /// Optional deterministic fault plan (outages, grant loss, session
    /// crashes, admission control — see [`crate::fault`]). Faults act on
    /// the contended path: a scenario with a fault plan runs through
    /// [`crate::uplink::run_contended`] even without an `uplink` spec
    /// (with an unconstrained uplink). `None` keeps the fault-free path,
    /// bit-identically.
    pub fault: Option<crate::fault::FaultPlan>,
    /// Optional session churn (mid-run joins, departures, SoA compaction —
    /// see [`crate::churn`]). Churn acts on the contended path, like
    /// faults. `None` — or an empty spec — keeps the fixed-N path,
    /// bit-identically.
    pub churn: Option<crate::churn::ChurnSpec>,
}

impl Scenario {
    /// An empty scenario over `slots` slots.
    pub fn new(slots: u64) -> Scenario {
        Scenario {
            slots,
            sessions: Vec::new(),
            uplink: None,
            fault: None,
            churn: None,
        }
    }

    /// Appends one session.
    #[must_use]
    pub fn with_session(mut self, spec: SessionSpec) -> Scenario {
        self.sessions.push(spec);
        self
    }

    /// Couples the sessions through a shared uplink (see [`crate::uplink`]).
    #[must_use]
    pub fn with_uplink(mut self, spec: crate::uplink::UplinkSpec) -> Scenario {
        self.uplink = Some(spec);
        self
    }

    /// Attaches a fault plan (see [`crate::fault`]), validating it against
    /// the sessions declared so far — call after the fleet is built.
    ///
    /// # Panics
    ///
    /// Panics when [`crate::fault::FaultPlan::validate`] rejects the plan
    /// for this fleet.
    #[must_use]
    pub fn with_fault(mut self, plan: crate::fault::FaultPlan) -> Scenario {
        plan.validate(self.sessions.len());
        self.fault = Some(plan);
        self
    }

    /// Attaches a churn spec (see [`crate::churn`]), validating it against
    /// the uplink and fault plan declared so far — call last, after
    /// [`Scenario::with_uplink`] / [`Scenario::with_fault`].
    ///
    /// # Panics
    ///
    /// Panics when [`crate::churn::ChurnSpec::validate`] rejects the spec,
    /// when the weight pairing is wrong for this scenario's uplink policy
    /// (a `weighted_max_weight` uplink requires a churn weight for joiners
    /// and any other policy forbids one), or when churn lifetimes are
    /// combined with `session_crash` fault events (the two would race for
    /// the same sessions' liveness).
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnSpec) -> Scenario {
        churn.validate();
        json::enforce(self.check_churn(&churn));
        self.churn = Some(churn);
        self
    }

    /// The scenario's own rule walk, over what no single member sees: a
    /// `weighted_max_weight` uplink carries exactly one weight per session,
    /// and the churn cross-checks ([`Scenario::check_churn`]).
    fn check(&self) -> Rules {
        if let Some(UplinkSpec {
            policy: UplinkPolicy::WeightedMaxWeight { weights },
            ..
        }) = &self.uplink
        {
            ensure(weights.len() == self.sessions.len(), "uplink", || {
                format!(
                    "weighted_max_weight declares {} weights for {} sessions \
                     (need exactly one per session)",
                    weights.len(),
                    self.sessions.len()
                )
            })?;
        }
        match &self.churn {
            Some(churn) => self.check_churn(churn),
            None => Ok(()),
        }
    }

    /// The scenario-level churn cross-checks, shared by
    /// [`Scenario::with_churn`] and [`Scenario::from_json`]: weight/policy
    /// pairing and the lifetime/`session_crash` exclusion.
    fn check_churn(&self, churn: &ChurnSpec) -> Rules {
        let weighted = matches!(
            self.uplink.as_ref().map(|u| &u.policy),
            Some(UplinkPolicy::WeightedMaxWeight { .. })
        );
        if churn.arrivals.is_some() {
            ensure(!weighted || churn.weight.is_some(), "churn", || {
                "a weighted_max_weight uplink requires a churn weight for joiners".to_string()
            })?;
            ensure(weighted || churn.weight.is_none(), "churn", || {
                "a churn weight requires a weighted_max_weight uplink".to_string()
            })?;
        }
        let crashes = self.fault.as_ref().is_some_and(|plan| {
            plan.events
                .iter()
                .any(|e| matches!(e, FaultEvent::SessionCrash { .. }))
        });
        ensure(churn.lifetime.is_none() || !crashes, "churn", || {
            "churn lifetimes cannot be combined with session_crash fault events \
             (both drive session liveness)"
                .to_string()
        })
    }

    /// A single-session scenario from a legacy config and a policy.
    pub fn single(cfg: &ExperimentConfig, controller: ControllerSpec) -> Scenario {
        Scenario::new(cfg.slots).with_session(SessionSpec::from_config(cfg, controller))
    }

    /// `n` copies of one config/policy with decorrelated per-session seeds
    /// (`child_seed(cfg.seed, i)`) — the homogeneous multi-tenant workload.
    pub fn replicated(cfg: &ExperimentConfig, controller: ControllerSpec, n: usize) -> Scenario {
        let mut scenario = Scenario::new(cfg.slots);
        for i in 0..n {
            let mut spec = SessionSpec::from_config(cfg, controller.clone());
            spec.seed = child_seed(cfg.seed, i as u64);
            scenario.sessions.push(spec);
        }
        scenario
    }

    /// The multi-device fleet (§II's "computed in a distributed manner"):
    /// `fleet.devices` sessions running the proposed scheduler at
    /// `base.controller_v`, each with its own queue, stream and seed
    /// (`child_seed(0xF1EE7, device)`) and no shared scheduler state,
    /// service rates spread per [`FleetSpec`].
    ///
    /// # Panics
    ///
    /// Panics when `fleet.devices == 0` or the base service is not
    /// constant-rate (heterogeneity is defined on constant rates).
    pub fn fleet(base: &ExperimentConfig, fleet: FleetSpec) -> Scenario {
        assert!(fleet.devices > 0, "need at least one device");
        let base_rate = match base.service {
            ServiceSpec::Constant(r) => r,
            // arvis-lint: allow(panic-free-codecs, "legacy Experiment API with a documented panic contract; the JSON path validates via from_json instead")
            _ => panic!("fleet experiments require a constant-rate base service"),
        };
        let mut scenario = Scenario::new(base.slots);
        for i in 0..fleet.devices {
            let mut spec = SessionSpec::from_config(
                base,
                ControllerSpec::Proposed {
                    v: base.controller_v,
                },
            );
            spec.service = ServiceSpec::Constant(fleet_rate(base_rate, fleet, i));
            spec.seed = child_seed(0xF1EE7, i as u64);
            scenario.sessions.push(spec);
        }
        scenario
    }

    /// One proposed-scheduler session per `V` in `vs`, otherwise identical
    /// to `base` — the quality–delay trade-off sweep.
    pub fn v_sweep(base: &ExperimentConfig, vs: &[f64]) -> Scenario {
        let mut scenario = Scenario::new(base.slots);
        for &v in vs {
            scenario.sessions.push(SessionSpec::from_config(
                base,
                ControllerSpec::Proposed { v },
            ));
        }
        scenario
    }

    /// One proposed-scheduler session per constant service rate in `rates`,
    /// holding `V` at `base.controller_v` — the robustness sweep.
    pub fn rate_sweep(base: &ExperimentConfig, rates: &[f64]) -> Scenario {
        let mut scenario = Scenario::new(base.slots);
        for &rate in rates {
            let mut spec = SessionSpec::from_config(
                base,
                ControllerSpec::Proposed {
                    v: base.controller_v,
                },
            );
            spec.service = ServiceSpec::Constant(rate);
            scenario.sessions.push(spec);
        }
        scenario
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no sessions are declared.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Decodes a scenario from a parsed tree, checking the schema version
    /// (a `fault` member needs version 2, a `churn` member version 3),
    /// rejecting unknown keys at every level, validating the fault plan
    /// against the fleet, and running the scenario's own rule walk.
    ///
    /// # Errors
    ///
    /// Errors (with the offending position) on a missing or unsupported
    /// `"schema"`, unknown or missing keys, wrong types, and invalid
    /// parameters anywhere in the tree.
    pub fn from_json(v: &JsonValue) -> Result<Scenario, JsonError> {
        let mut obj = v.as_obj()?;
        let schema_node = obj.req("schema")?;
        let schema = schema_node.as_u64()?;
        if !(1..=SCENARIO_SCHEMA_VERSION).contains(&schema) {
            return Err(JsonError::at(
                schema_node.pos,
                format!(
                    "unsupported schema version {schema} \
                     (this build reads versions 1 through {SCENARIO_SCHEMA_VERSION})"
                ),
            ));
        }
        let slots = Codec::member(&mut obj, "slots")?;
        let sessions: Vec<SessionSpec> = Codec::member(&mut obj, "sessions")?;
        let uplink = Codec::member(&mut obj, "uplink")?;
        let mut since = |key: &str, version: u64| match obj.opt(key) {
            Some(node) if schema < version => Err(JsonError::at(
                node.pos,
                format!("\"{key}\" requires schema version {version} (file declares {schema})"),
            )),
            node => Ok(node),
        };
        let fault = match since("fault", 2)? {
            Some(node) => Some(FaultPlan::from_json(node, sessions.len())?),
            None => None,
        };
        let churn = since("churn", 3)?.map(ChurnSpec::decode).transpose()?;
        obj.finish()?;
        let scenario = Scenario {
            slots,
            sessions,
            uplink,
            fault,
            churn,
        };
        scenario.check().map_err(|broken| broken.at(v))?;
        Ok(scenario)
    }

    /// Renders the scenario in the canonical file form: its canonical text
    /// ([`crate::json::to_string`]) with a trailing newline. The top level
    /// is `{"schema": …, "slots": …, "sessions": […], "uplink": …?,
    /// "fault": …?, "churn": …?}` with members in that fixed order — the
    /// schema version plus unknown-key rejection keeps files
    /// forward-diffable. Emission uses the lowest schema version that can
    /// express the scenario ([`Scenario::schema_version`]): fault-free
    /// churn-free files stay byte-identical to what version-1 builds
    /// wrote, faulted files to version-2 output. Canonical means
    /// reproducible: `from_json_str` followed by `to_json_string` is
    /// byte-identical for any canonically-formatted file (pinned by the
    /// golden suite in `tests/scenario_files.rs`).
    ///
    /// # Errors
    ///
    /// Errors when any float the file form carries is not finite, naming
    /// the field, and the offending session index for a session's fields.
    pub fn to_json_string(&self) -> Result<String, JsonError> {
        let mut out = json::to_string(self)?;
        out.push('\n');
        Ok(out)
    }

    /// Parses a scenario file: strict JSON ([`crate::json::parse`])
    /// followed by [`Scenario::from_json`].
    ///
    /// # Errors
    ///
    /// Errors with line/column on any syntax or schema violation; never
    /// panics, whatever the input bytes.
    pub fn from_json_str(text: &str) -> Result<Scenario, JsonError> {
        Scenario::from_json(&crate::json::parse(text)?)
    }

    /// The schema version this scenario *emits* — the lowest version that
    /// can express it, so files stay byte-compatible with the oldest
    /// readers that understand them: 1 without fault or churn, 2 with only
    /// a fault plan, [`SCENARIO_SCHEMA_VERSION`] once churn is declared.
    pub fn schema_version(&self) -> u64 {
        if self.churn.is_some() {
            SCENARIO_SCHEMA_VERSION
        } else if self.fault.is_some() {
            2
        } else {
            1
        }
    }

    /// The SHA-256 of the canonical file form ([`Scenario::to_json_string`])
    /// as 64 lowercase hex digits — the scenario's content address. The
    /// text streams into the hash ([`crate::json::file_hash`]) and is never
    /// built.
    ///
    /// Because emission is canonical (`emit → parse → emit` is
    /// byte-identical), two scenarios hash equal exactly when their file
    /// forms are byte-identical; any semantic edit (one field, one float
    /// bit) changes the hash. The regression ledger
    /// ([`crate::ledger`]) keys run records by this value.
    ///
    /// # Errors
    ///
    /// Errors as [`Scenario::to_json_string`] does (no file form, hence no
    /// content address).
    pub fn content_hash(&self) -> Result<String, JsonError> {
        json::file_hash(self)
    }
}

/// The scenario's file form (see [`Scenario::to_json_string`]).
impl Emit for Scenario {
    fn emit(&self, out: &mut Emitter, _name: &str) -> Result<(), JsonError> {
        let Scenario {
            slots,
            sessions,
            uplink,
            fault,
            churn,
        } = self;
        out.object(|out| {
            out.member("schema", &self.schema_version())?;
            out.member("slots", slots)?;
            out.key("sessions");
            out.array(false, sessions.iter().enumerate(), |out, (i, spec)| {
                spec.emit(out, "session")
                    .map_err(|e| JsonError::new(format!("session {i}: {}", e.msg)))
            })?;
            out.member("uplink", uplink)?;
            out.member("fault", fault)?;
            out.member("churn", churn)
        })
    }
}

/// Heterogeneity of a device fleet ([`Scenario::fleet`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of devices.
    pub devices: usize,
    /// Relative spread of per-device service rates around the base config's
    /// rate: device `i` gets `rate × (1 − spread/2 + spread·i/(M−1))`.
    pub rate_spread: f64,
}

impl FleetSpec {
    /// A homogeneous fleet.
    pub fn homogeneous(devices: usize) -> Self {
        FleetSpec {
            devices,
            rate_spread: 0.0,
        }
    }

    /// A heterogeneous fleet with the given relative rate spread (e.g. `0.5`
    /// spans ±25% around the nominal rate).
    ///
    /// # Panics
    ///
    /// Panics when `spread` is not in `[0, 2)`.
    pub fn heterogeneous(devices: usize, spread: f64) -> Self {
        assert!((0.0..2.0).contains(&spread), "spread must be in [0, 2)");
        FleetSpec {
            devices,
            rate_spread: spread,
        }
    }
}

/// Device `i`'s service rate under a [`FleetSpec`] spread.
pub(crate) fn fleet_rate(base_rate: f64, fleet: FleetSpec, i: usize) -> f64 {
    if fleet.devices == 1 || fleet.rate_spread == 0.0 {
        base_rate
    } else {
        let frac = i as f64 / (fleet.devices - 1) as f64;
        base_rate * (1.0 - fleet.rate_spread / 2.0 + fleet.rate_spread * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvis_quality::DepthProfile;

    fn profile() -> DepthProfile {
        DepthProfile::from_parts(
            5,
            vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
            vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        )
    }

    fn config() -> ExperimentConfig {
        ExperimentConfig::new(profile(), 2_000.0, 100).with_seed(9)
    }

    #[test]
    fn built_controllers_keep_legacy_names() {
        let p = profile();
        let specs = [
            (ControllerSpec::Proposed { v: 1e6 }, "proposed"),
            (ControllerSpec::OnlyMax, "only_max_depth"),
            (ControllerSpec::OnlyMin, "only_min_depth"),
            (ControllerSpec::Fixed { depth: 7 }, "fixed_depth"),
            (ControllerSpec::Random { seed: 3 }, "random_depth"),
            (
                ControllerSpec::Threshold {
                    thresholds: vec![10.0, 20.0],
                },
                "queue_threshold",
            ),
            (
                ControllerSpec::AdaptiveV {
                    initial_v: 1e6,
                    target_backlog: 100.0,
                },
                "adaptive_v",
            ),
        ];
        for (spec, want) in specs {
            let mut built = spec.build();
            assert_eq!(built.name(), want);
            let d = built.select_depth(0, 50.0, &p);
            assert!((5..=10).contains(&d), "{want} returned depth {d}");
        }
    }

    #[test]
    fn built_matches_hand_constructed_policy() {
        let p = profile();
        let mut built = ControllerSpec::Random { seed: 11 }.build();
        let mut direct = RandomDepth::new(11);
        for slot in 0..50 {
            assert_eq!(
                built.select_depth(slot, 0.0, &p),
                direct.select_depth(slot, 0.0, &p)
            );
        }
    }

    #[test]
    fn replicated_scenario_decorrelates_seeds() {
        let s = Scenario::replicated(&config(), ControllerSpec::OnlyMax, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.slots, 100);
        let mut seeds: Vec<u64> = s.sessions.iter().map(|x| x.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "seeds must differ");
        assert_eq!(seeds[0], child_seed(9, 0));
    }

    #[test]
    fn fleet_scenario_reproduces_legacy_layout() {
        let base = config().with_controller_v(5e6);
        let fleet = FleetSpec::heterogeneous(5, 1.0);
        let s = Scenario::fleet(&base, fleet);
        assert_eq!(s.len(), 5);
        for (i, spec) in s.sessions.iter().enumerate() {
            assert_eq!(spec.seed, child_seed(0xF1EE7, i as u64));
            let ServiceSpec::Constant(rate) = spec.service else {
                panic!("fleet sessions must be constant-rate");
            };
            assert!((rate - fleet_rate(2_000.0, fleet, i)).abs() < 1e-12);
            let ControllerSpec::Proposed { v } = spec.controller else {
                panic!("fleet sessions run the proposed scheduler");
            };
            assert_eq!(v, 5e6);
        }
        // Spread of 1.0 spans ±50%.
        let ServiceSpec::Constant(lo) = s.sessions[0].service else {
            unreachable!()
        };
        let ServiceSpec::Constant(hi) = s.sessions[4].service else {
            unreachable!()
        };
        assert!((lo - 1_000.0).abs() < 1e-9);
        assert!((hi - 3_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "constant-rate")]
    fn fleet_scenario_rejects_stochastic_base() {
        let base = config().with_service(ServiceSpec::Jittered {
            rate: 2_000.0,
            sigma: 0.1,
        });
        let _ = Scenario::fleet(&base, FleetSpec::homogeneous(2));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_rejected() {
        let _ = Scenario::fleet(&config(), FleetSpec::homogeneous(0));
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn bad_spread_rejected() {
        let _ = FleetSpec::heterogeneous(3, 2.5);
    }

    #[test]
    fn scenario_json_roundtrip_is_exact_and_canonical() {
        use crate::uplink::{BudgetProfile, UplinkPolicy, UplinkSpec, UplinkVAdaptSpec};
        let cfg = config();
        let mut scenario = Scenario::new(1_600);
        for controller in [
            ControllerSpec::Proposed { v: 1e7 },
            ControllerSpec::OnlyMax,
            ControllerSpec::OnlyMin,
            ControllerSpec::Fixed { depth: 7 },
            ControllerSpec::Random { seed: u64::MAX },
            ControllerSpec::Threshold {
                thresholds: vec![0.1, 1e4, 1e8],
            },
            ControllerSpec::AdaptiveV {
                initial_v: 3.5e6,
                target_backlog: 1234.5,
            },
        ] {
            let mut spec = SessionSpec::from_config(&cfg, controller);
            spec.seed = 0x1234_5678_9abc_def0;
            scenario.sessions.push(spec);
        }
        scenario.sessions[0].queue_capacity = Some(50_000.0);
        scenario.sessions[0].frame_cap = Some(4_096);
        scenario.sessions[0].uplink_v_adapt = Some(UplinkVAdaptSpec::default());
        scenario.sessions[1].service = ServiceSpec::Jittered {
            rate: 2_000.0,
            sigma: 0.2,
        };
        scenario.sessions[2].service = ServiceSpec::DutyCycled {
            high: 3_000.0,
            low: 750.0,
            high_slots: 30,
            low_slots: 10,
        };
        scenario.sessions[3].stream = ArStream::modulated(profile(), 0.25, 400.0);
        scenario = scenario.with_uplink(UplinkSpec::with_profile(
            BudgetProfile::Diurnal {
                mean: 9_600.0,
                amplitude: 7_200.0,
                period: 200,
                phase: 0.25,
            },
            UplinkPolicy::WeightedMaxWeight {
                weights: (1..=7).map(f64::from).collect(),
            },
        ));

        let text = scenario.to_json_string().expect("encode");
        let back = Scenario::from_json_str(&text).expect("decode");
        // Canonical: re-encoding the decoded scenario is byte-identical.
        assert_eq!(back.to_json_string().unwrap(), text);
        // And the decoded structure matches bitwise where it matters.
        assert_eq!(back.slots, scenario.slots);
        assert_eq!(back.len(), scenario.len());
        assert_eq!(back.sessions[0].seed, scenario.sessions[0].seed);
        assert_eq!(back.sessions[0].frame_cap, Some(4_096));
        assert_eq!(back.uplink, scenario.uplink);
        for (a, b) in back.sessions.iter().zip(&scenario.sessions) {
            let pa = a.stream.profile_at(7);
            let pb = b.stream.profile_at(7);
            for d in pa.depths() {
                assert_eq!(pa.arrival(d).to_bits(), pb.arrival(d).to_bits());
                assert_eq!(pa.quality(d).to_bits(), pb.quality(d).to_bits());
            }
        }
    }

    #[test]
    fn sweep_scenarios_cover_the_grid() {
        let base = config().with_controller_v(3e6);
        let vs = [1e5, 1e6, 1e7];
        let s = Scenario::v_sweep(&base, &vs);
        assert_eq!(s.len(), 3);
        for (spec, &v_want) in s.sessions.iter().zip(&vs) {
            let ControllerSpec::Proposed { v } = spec.controller else {
                panic!("v-sweep uses the proposed scheduler");
            };
            assert_eq!(v, v_want);
        }
        let rates = [500.0, 4_000.0];
        let r = Scenario::rate_sweep(&base, &rates);
        for (spec, &want) in r.sessions.iter().zip(&rates) {
            let ServiceSpec::Constant(got) = spec.service else {
                panic!("rate sweep is constant-rate");
            };
            assert_eq!(got, want);
            let ControllerSpec::Proposed { v } = spec.controller else {
                panic!()
            };
            assert_eq!(v, 3e6);
        }
    }
}
