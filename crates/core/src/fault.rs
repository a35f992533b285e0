//! The deterministic fault-injection plane: outages, grant loss, session
//! crash/restart, and admission-control degradation.
//!
//! Every run the repo measured before this module was fault-free: the
//! uplink budget could *vary* ([`crate::uplink::BudgetProfile`]) but never
//! blacked out with loss semantics, sessions never stalled or lost state,
//! and nothing was ever shed at admission. This module adds all of that as
//! *data* — a [`FaultPlan`] of typed events carried by the scenario file
//! (`"schema": 2`) — while keeping the runtime's determinism contract
//! intact: a faulted run is bit-identical on replay, and an empty
//! [`FaultPlan`] is bit-identical to the fault-free path.
//!
//! ## Event types
//!
//! - [`FaultEvent::Outage`] — the uplink budget is forced to `0` for a
//!   window of slots, composing on top of whatever
//!   [`crate::uplink::BudgetProfile`] the scenario declares;
//! - [`FaultEvent::Brownout`] — the budget is multiplied by a factor in
//!   `[0, 1]` for a window (overlapping windows multiply);
//! - [`FaultEvent::GrantLoss`] — one session's *granted* capacity is lost
//!   after allocation with probability `p` per slot, drawn from a
//!   dedicated seeded stream so the sessions' own RNGs (and therefore
//!   every uncoupled path) stay bit-identical;
//! - [`FaultEvent::SessionCrash`] — one session goes down at a slot under
//!   a [`CrashPolicy`]: `ColdRestart` (queue + controller state reset,
//!   local clock restarted), `WarmRestart` (queue preserved, controller
//!   re-warmed), or `Permanent` (never comes back).
//!
//! ## Determinism contract
//!
//! - Grant-loss draws come from per-event xoshiro streams seeded by the
//!   event's own `seed`; exactly **one Bernoulli draw per event per slot**
//!   is taken, whatever the liveness or guard state, so composing faults
//!   never shifts another fault's draws.
//! - The degradation guard's shed set is chosen by *weight value* (whole
//!   lowest-weight groups), never by session index, so permuting sessions
//!   (together with their weights and fault events) permutes the results
//!   bit-for-bit — the same order-invariance the uplink policies keep.
//! - A `ColdRestart` session's post-restart trajectory is bit-identical
//!   to a fresh session with the residual horizon: the restart rebuilds
//!   the controller, queue, latency tracker, service process and `V`
//!   adapter from the spec and restarts the session's local clock.
//!
//! `tests/fault_plane.rs` pins all of the above, plus a seeded chaos soak
//! (hundreds of random fault plans over random fleets).

use serde::{Deserialize, Serialize};

use arvis_sim::rng::seeded;
use rand::rngs::StdRng;
use rand::Rng;

use crate::json::{self, ensure, Broken, Codec, JsonError, JsonValue, Rules};
use crate::session::{RowIds, SessionBatch};
use crate::telemetry::TelemetrySink;
use crate::uplink::invariant_sum;

/// What happens to a crashed session's state, and whether it comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPolicy {
    /// The session restarts with its queue, controller, latency tracker,
    /// service process and `V` adapter rebuilt from the spec, and its
    /// local clock restarted — bit-identical to a fresh session with the
    /// residual horizon.
    ColdRestart,
    /// The session restarts with its queue (and latency tracker, service
    /// process and clock) preserved; only the controller and `V` adapter
    /// are re-warmed from the spec.
    WarmRestart,
    /// The session never comes back; its queue is discarded at the crash.
    Permanent,
}

json::codec!(CrashPolicy as "crash policy" =
    ColdRestart "cold_restart" | WarmRestart "warm_restart" | Permanent "permanent");

/// One typed fault event of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The uplink budget is forced to zero for `slots` slots starting at
    /// `start` (composes with — overrides — the scenario's budget
    /// profile).
    Outage {
        /// First affected slot.
        start: u64,
        /// Window length in slots (≥ 1).
        slots: u64,
    },
    /// The uplink budget is multiplied by `factor ∈ [0, 1]` for `slots`
    /// slots starting at `start`; overlapping brownouts multiply.
    Brownout {
        /// First affected slot.
        start: u64,
        /// Window length in slots (≥ 1).
        slots: u64,
        /// Budget multiplier in `[0, 1]`.
        factor: f64,
    },
    /// Session `session`'s granted capacity is lost (set to zero after
    /// allocation) with probability `p` each slot, drawn from a dedicated
    /// stream seeded with `seed`. At most one `GrantLoss` per session.
    GrantLoss {
        /// The affected session (batch order).
        session: usize,
        /// Per-slot loss probability in `[0, 1]`.
        p: f64,
        /// Seed of the event's own Bernoulli stream.
        seed: u64,
    },
    /// Session `session` crashes at `slot` (missing that slot) and — for
    /// the restartable policies — comes back `restart_after` slots later.
    SessionCrash {
        /// The affected session (batch order).
        session: usize,
        /// The first slot the session misses.
        slot: u64,
        /// Downtime in slots (required ≥ 1 for the restartable policies,
        /// forbidden for [`CrashPolicy::Permanent`]).
        restart_after: Option<u64>,
        /// What happens to the session's state.
        policy: CrashPolicy,
    },
}

/// How the degradation guard sheds the selected tenants' demands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShedMode {
    /// Shed tenants' demands are zeroed for the slot (full deferral).
    Defer,
    /// Shed tenants' demands are multiplied by `factor ∈ [0, 1)`.
    Clamp {
        /// Demand multiplier in `[0, 1)`.
        factor: f64,
    },
}

/// Admission control on the contended path: when the EMA'd
/// contended-fraction or the aggregate backlog crosses a threshold, the
/// guard sheds load deterministically — whole lowest-weight tenant groups
/// (weights from a `weighted_max_weight` policy, uniform otherwise — note
/// uniform weights form one group, so the guard then defers the whole
/// fleet) — and recovers with hysteresis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationGuardSpec {
    /// EMA smoothing factor for the contended-fraction signal, in
    /// `(0, 1]`.
    pub ema_alpha: f64,
    /// The guard engages when the smoothed contended fraction reaches
    /// this level (in `[release_below, 1]`).
    pub engage_above: f64,
    /// The guard releases once the smoothed contended fraction falls to
    /// this level *and* the backlog is below `backlog_limit` (hysteresis;
    /// in `[0, engage_above]`).
    pub release_below: f64,
    /// Aggregate-backlog threshold that also engages the guard
    /// (`f64::INFINITY` disables the backlog trigger).
    pub backlog_limit: f64,
    /// Fraction of the fleet to shed when engaged, in `(0, 1]`: sessions at
    /// or below the `⌈shed_fraction · n⌉`-th smallest weight are shed, where
    /// `n` counts every id ever issued, dead and departed ones included.
    pub shed_fraction: f64,
    /// What shedding does to the selected demands.
    pub mode: ShedMode,
}

impl DegradationGuardSpec {
    /// Validates the guard parameters.
    ///
    /// # Panics
    ///
    /// Panics when `ema_alpha ∉ (0, 1]`,
    /// `0 ≤ release_below ≤ engage_above ≤ 1` fails, `backlog_limit` is
    /// NaN or non-positive, `shed_fraction ∉ (0, 1]`, or a clamp factor
    /// is outside `[0, 1)`.
    pub fn validate(&self) {
        json::enforce(self.check());
    }

    /// The guard's rule walk.
    pub(crate) fn check(&self) -> Rules {
        let DegradationGuardSpec {
            ema_alpha,
            engage_above,
            release_below,
            backlog_limit,
            shed_fraction,
            mode,
        } = *self;
        ensure(ema_alpha > 0.0 && ema_alpha <= 1.0, "ema_alpha", || {
            format!("guard ema_alpha must be in (0, 1], got {ema_alpha}")
        })?;
        ensure(
            0.0 <= release_below && release_below <= engage_above && engage_above <= 1.0,
            "release_below",
            || {
                format!(
                    "guard needs 0 <= release_below <= engage_above <= 1, \
                     got [{release_below}, {engage_above}]"
                )
            },
        )?;
        ensure(backlog_limit > 0.0, "backlog_limit", || {
            format!("guard backlog_limit must be positive (inf disables it), got {backlog_limit}")
        })?;
        ensure(
            shed_fraction > 0.0 && shed_fraction <= 1.0,
            "shed_fraction",
            || format!("guard shed_fraction must be in (0, 1], got {shed_fraction}"),
        )?;
        match mode {
            ShedMode::Clamp { factor } => {
                ensure((0.0..1.0).contains(&factor), "mode.factor", || {
                    format!("guard clamp factor must be in [0, 1), got {factor}")
                })
            }
            ShedMode::Defer => Ok(()),
        }
    }
}

json::codec!(DegradationGuardSpec {
    ema_alpha,
    engage_above,
    release_below,
    backlog_limit: Inf,
    shed_fraction,
    mode,
} check);

json::codec!(ShedMode as "shed mode" {
    Defer "defer",
    Clamp "clamp" { factor },
});

/// A declarative fault plan: typed events plus an optional degradation
/// guard, carried by [`crate::scenario::Scenario::fault`] (`"schema": 2`).
///
/// An empty plan (no events, no guard) is bit-identical to no plan at all.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The fault events, in file order.
    pub events: Vec<FaultEvent>,
    /// Optional admission-control degradation guard.
    pub guard: Option<DegradationGuardSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; bit-identical to the fault-free
    /// path).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends one event.
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self
    }

    /// Attaches the degradation guard.
    #[must_use]
    pub fn with_guard(mut self, guard: DegradationGuardSpec) -> FaultPlan {
        self.guard = Some(guard);
        self
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.guard.is_none()
    }

    /// Validates the plan against a fleet of `sessions` sessions.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length or overflowing window, a brownout factor
    /// outside `[0, 1]`, a loss probability outside `[0, 1]`, more than
    /// one [`FaultEvent::GrantLoss`] per session, an out-of-range session
    /// index, a `restart_after` missing (restartable) or present
    /// (permanent), per-session crash schedules that are unsorted or
    /// overlap a previous downtime window, a crash after a permanent one,
    /// or an invalid guard (see [`DegradationGuardSpec::validate`]).
    pub fn validate(&self, sessions: usize) {
        json::enforce(self.check(sessions));
    }

    /// The plan's rule walk against a fleet of `sessions` sessions; a
    /// broken event rule names the event (`events[i]`).
    fn check(&self, sessions: usize) -> Rules {
        let mut has_loss = vec![false; sessions];
        // Per-session crash bookkeeping: (last crash slot, earliest slot
        // the next crash may use, permanently crashed).
        let mut crash_floor: Vec<Option<(u64, u64, bool)>> = vec![None; sessions];
        for (i, event) in self.events.iter().enumerate() {
            let fail = |msg: String| {
                Err(Broken {
                    path: format!("events[{i}]"),
                    msg: format!("event {i}: {msg}"),
                })
            };
            match event {
                FaultEvent::Outage { start, slots } | FaultEvent::Brownout { start, slots, .. } => {
                    if *slots == 0 {
                        return fail("window must cover at least one slot".to_string());
                    }
                    if start.checked_add(*slots).is_none() {
                        return fail(format!("window end overflows (start {start} + {slots})"));
                    }
                    if let FaultEvent::Brownout { factor, .. } = event {
                        if !(0.0..=1.0).contains(factor) {
                            return fail(format!(
                                "brownout factor must be in [0, 1], got {factor}"
                            ));
                        }
                    }
                }
                FaultEvent::GrantLoss { session, p, .. } => {
                    if *session >= sessions {
                        return fail(format!(
                            "session {session} out of range (fleet has {sessions})"
                        ));
                    }
                    if !(0.0..=1.0).contains(p) {
                        return fail(format!("loss probability must be in [0, 1], got {p}"));
                    }
                    if has_loss[*session] {
                        return fail(format!("session {session} already has a grant_loss event"));
                    }
                    has_loss[*session] = true;
                }
                FaultEvent::SessionCrash {
                    session,
                    slot,
                    restart_after,
                    policy,
                } => {
                    if *session >= sessions {
                        return fail(format!(
                            "session {session} out of range (fleet has {sessions})"
                        ));
                    }
                    let restart_at = match (policy, restart_after) {
                        (CrashPolicy::Permanent, Some(_)) => {
                            return fail("a permanent crash takes no restart_after".to_string())
                        }
                        (CrashPolicy::Permanent, None) => u64::MAX,
                        (_, None) => {
                            return fail(format!(
                                "a {} crash requires restart_after",
                                policy.name()
                            ))
                        }
                        (_, Some(0)) => {
                            return fail("restart_after must be at least 1".to_string())
                        }
                        (_, Some(after)) => match slot.checked_add(*after) {
                            Some(at) => at,
                            None => {
                                return fail(format!("restart slot overflows ({slot} + {after})"))
                            }
                        },
                    };
                    match crash_floor[*session] {
                        Some((last, _, true)) => {
                            return fail(format!(
                                "session {session} crashed permanently at slot {last}; \
                                 nothing can follow"
                            ))
                        }
                        Some((last, _, false)) if *slot <= last => {
                            return fail(format!(
                                "session {session} crashes must have strictly \
                                 ascending slots (got {slot} after {last})"
                            ))
                        }
                        Some((_, floor, false)) if *slot < floor => {
                            return fail(format!(
                                "session {session} crash at slot {slot} overlaps \
                                 the previous downtime (ends at slot {floor})"
                            ))
                        }
                        _ => {}
                    }
                    crash_floor[*session] =
                        Some((*slot, restart_at, matches!(policy, CrashPolicy::Permanent)));
                }
            }
        }
        match &self.guard {
            Some(guard) => guard.check().map_err(|b| b.under("guard")),
            None => Ok(()),
        }
    }

    /// Decodes a plan from its scenario-file form and validates it against
    /// a fleet of `sessions` sessions, turning every
    /// [`FaultPlan::validate`] panic into a positioned error.
    ///
    /// # Errors
    ///
    /// Errors (with the offending position) on unknown or missing keys,
    /// wrong types, unknown `"type"`/policy tags, and every cross-field
    /// violation [`FaultPlan::validate`] checks.
    pub fn from_json(v: &JsonValue, sessions: usize) -> Result<FaultPlan, JsonError> {
        let plan = FaultPlan::decode(v)?;
        plan.check(sessions).map_err(|broken| broken.at(v))?;
        Ok(plan)
    }
}

json::codec!(FaultPlan { events, guard });

json::codec!(FaultEvent as "fault event type" {
    Outage "outage" { start, slots },
    Brownout "brownout" { start, slots, factor },
    GrantLoss "grant_loss" { session, p, seed },
    SessionCrash "session_crash" { session, slot, policy, restart_after },
});

/// One session's pending grant-loss stream.
#[derive(Debug)]
struct LossState {
    session: usize,
    p: f64,
    rng: StdRng,
}

/// One session's crash schedule entry, precomputed from the plan.
#[derive(Debug, Clone, Copy)]
struct CrashEntry {
    session: usize,
    slot: u64,
    restart_at: u64,
    policy: CrashPolicy,
}

/// Counts one more session id of `weight` in `levels`: the distinct
/// weight values ascending by `total_cmp`, each with its number of ids.
/// The degradation guard reads its threshold and shed count from these
/// counts, so it never walks the ids themselves.
pub(crate) fn count_weight(levels: &mut Vec<(f64, u64)>, weight: f64) {
    match levels.binary_search_by(|&(w, _)| w.total_cmp(&weight)) {
        Ok(i) => levels[i].1 += 1,
        Err(i) => levels.insert(i, (weight, 1)),
    }
}

/// The degradation guard's live state.
#[derive(Debug)]
struct GuardState {
    spec: DegradationGuardSpec,
    ema: f64,
    engaged: bool,
}

impl GuardState {
    /// Updates the engage/release hysteresis for this slot and, when
    /// engaged, sheds every row whose session's weight is at or below the
    /// threshold (see [`DegradationGuardSpec::shed_fraction`]). `levels`
    /// counts the ids per weight value (see [`count_weight`]), and the
    /// threshold and the returned count come from it: they cover every id
    /// ever issued, ids without a row included.
    fn shed(
        &mut self,
        backlog: f64,
        demands: &mut [f64],
        levels: &[(f64, u64)],
        weight: impl Fn(usize) -> f64,
    ) -> u64 {
        let spec = self.spec;
        let over = self.ema >= spec.engage_above || backlog >= spec.backlog_limit;
        let under = self.ema <= spec.release_below && backlog < spec.backlog_limit;
        if self.engaged {
            if under {
                self.engaged = false;
            }
        } else if over {
            self.engaged = true;
        }
        let n: u64 = levels.iter().map(|&(_, ids)| ids).sum();
        if !self.engaged || n == 0 {
            return 0;
        }
        let target = ((spec.shed_fraction * n as f64).ceil() as u64).clamp(1, n);
        // The threshold is the target-th smallest weight *value*, so the
        // shed set permutes with the sessions; `covered` ends as the number
        // of ids at or below it. The levels hold n >= target ids.
        let (mut covered, mut level) = (0, 0);
        while covered < target {
            covered += levels[level].1;
            level += 1;
        }
        let threshold = levels[level - 1].0;
        for (row, demand) in demands.iter_mut().enumerate() {
            if weight(row).total_cmp(&threshold).is_le() {
                match spec.mode {
                    ShedMode::Defer => *demand = 0.0,
                    ShedMode::Clamp { factor } => *demand *= factor,
                }
            }
        }
        covered
    }

    fn observe(&mut self, contended: bool) {
        let x = if contended { 1.0 } else { 0.0 };
        self.ema += self.spec.ema_alpha * (x - self.ema);
    }
}

/// The runnable fault plane: precomputed budget windows, per-event loss
/// streams, per-session crash schedules and the guard state, plus the
/// streaming fault aggregates the uplink summary surfaces.
///
/// Built from a validated [`FaultPlan`] by the contention plane
/// ([`crate::uplink::SharedUplink::with_fault`]); faults act only through
/// the contended path — uncoupled batches never consult a plane.
#[derive(Debug)]
pub struct FaultPlane {
    /// Budget windows: `(start, end_exclusive, factor)`; outages carry
    /// factor `0`.
    windows: Vec<(u64, u64, f64)>,
    losses: Vec<LossState>,
    /// All crash entries sorted by (slot, session), consumed by a cursor.
    crashes: Vec<CrashEntry>,
    crash_cursor: usize,
    guard: Option<GuardState>,
    loss_scratch: Vec<f64>,
    sum_scratch: Vec<f64>,
    // Streaming aggregates.
    shed_slots: u64,
    deferred_session_slots: u64,
    lost_total: f64,
    outage_slots: u64,
}

impl FaultPlane {
    /// Builds the runtime state for a plan over a fleet of `sessions`
    /// sessions.
    ///
    /// # Panics
    ///
    /// Panics when [`FaultPlan::validate`] rejects the plan.
    pub fn new(plan: &FaultPlan, sessions: usize) -> FaultPlane {
        plan.validate(sessions);
        let mut windows = Vec::new();
        let mut losses = Vec::new();
        let mut crashes = Vec::new();
        for event in &plan.events {
            match event {
                FaultEvent::Outage { start, slots } => {
                    windows.push((*start, start + slots, 0.0));
                }
                FaultEvent::Brownout {
                    start,
                    slots,
                    factor,
                } => windows.push((*start, start + slots, *factor)),
                FaultEvent::GrantLoss { session, p, seed } => losses.push(LossState {
                    session: *session,
                    p: *p,
                    rng: seeded(*seed),
                }),
                FaultEvent::SessionCrash {
                    session,
                    slot,
                    restart_after,
                    policy,
                } => crashes.push(CrashEntry {
                    session: *session,
                    slot: *slot,
                    restart_at: match restart_after {
                        Some(after) => slot + after,
                        None => u64::MAX,
                    },
                    policy: *policy,
                }),
            }
        }
        // Loss draws happen in a fixed per-plane order; sorting by session
        // makes that order a pure function of the (validated, one-per-
        // session) event set rather than file order.
        losses.sort_unstable_by_key(|l| l.session);
        crashes.sort_unstable_by_key(|c| (c.slot, c.session));
        FaultPlane {
            windows,
            losses,
            crashes,
            crash_cursor: 0,
            guard: plan.guard.map(|spec| GuardState {
                spec,
                ema: 0.0,
                engaged: false,
            }),
            loss_scratch: Vec::new(),
            sum_scratch: Vec::new(),
            shed_slots: 0,
            deferred_session_slots: 0,
            lost_total: 0.0,
            outage_slots: 0,
        }
    }

    /// The slot's budget after outage/brownout windows: an outage forces
    /// zero, brownouts multiply (overlapping windows compose by
    /// multiplication). Counts the slot in the outage aggregate when any
    /// outage window covers it.
    pub fn effective_budget(&mut self, slot: u64, base: f64) -> f64 {
        let mut budget = base;
        let mut in_outage = false;
        for &(start, end, factor) in &self.windows {
            if (start..end).contains(&slot) {
                budget *= factor;
                in_outage |= factor == 0.0;
            }
        }
        if in_outage {
            self.outage_slots += 1;
            // An infinite base budget times zero would be NaN; an outage
            // means *no* capacity, whatever the base.
            return 0.0;
        }
        budget
    }

    /// Applies the crash schedule for `slot`: restarts whose downtime has
    /// elapsed come first, then the crashes due this slot. Call once per
    /// slot, before polling demands.
    pub fn apply_crashes<S: TelemetrySink + Send>(
        &mut self,
        slot: u64,
        batch: &mut SessionBatch<S>,
    ) {
        batch.apply_restarts(slot);
        while let Some(entry) = self.crashes.get(self.crash_cursor) {
            if entry.slot > slot {
                break;
            }
            batch.crash_session(entry.session, entry.policy, entry.restart_at);
            self.crash_cursor += 1;
        }
    }

    /// Runs the degradation guard for this slot (no-op without one): updates
    /// the hysteresis from the smoothed contended fraction and the aggregate
    /// backlog, and sheds what [`DegradationGuardSpec::shed_fraction`]
    /// selects among the `demands.len()` sessions, whose weights are
    /// `weights` (uniform when `None`). Returns the number of sessions
    /// shed. The contended slot runs the same guard over its rows.
    pub fn shed(&mut self, backlog: f64, demands: &mut [f64], weights: Option<&[f64]>) -> u64 {
        if self.guard.is_none() {
            return 0;
        }
        let n = demands.len();
        let mut levels = Vec::new();
        match weights {
            Some(w) => {
                for &weight in &w[..n] {
                    count_weight(&mut levels, weight);
                }
            }
            None => levels.push((1.0, n as u64)),
        }
        self.shed_rows(backlog, demands, &levels, weights, RowIds::Identity(n))
    }

    /// The guard over one slot's per-row `demands`: row `p` belongs to
    /// session `rows.id(p)`, whose weight is read from the id-indexed
    /// `weights` (uniform when `None`), and `levels` counts every issued
    /// id per weight value (see [`count_weight`]). Returns the number of
    /// ids at or below the threshold weight, ids without a row included.
    pub(crate) fn shed_rows(
        &mut self,
        backlog: f64,
        demands: &mut [f64],
        levels: &[(f64, u64)],
        weights: Option<&[f64]>,
        rows: RowIds<'_>,
    ) -> u64 {
        let Some(guard) = self.guard.as_mut() else {
            return 0;
        };
        let count = guard.shed(backlog, demands, levels, |row| {
            weights.map_or(1.0, |w| w[rows.id(row)])
        });
        if count > 0 {
            self.shed_slots += 1;
            self.deferred_session_slots += count;
        }
        count
    }

    /// Applies every grant-loss stream for this slot: exactly one
    /// Bernoulli draw per event, whatever the grants or liveness, so
    /// composing faults never shifts the draws. A hit zeroes the
    /// session's grant. Returns the slot's (permutation-invariant) lost
    /// total. The contended slot runs the same loss over its rows.
    pub fn apply_loss(&mut self, grants: &mut [f64]) -> f64 {
        self.apply_loss_rows(grants, RowIds::Identity(grants.len()))
    }

    /// [`FaultPlane::apply_loss`] over one slot's per-row `grants`: an
    /// event's session is found by [`RowIds::row`], and a session without
    /// a row loses nothing (its grant is `+0.0`), though its draw is still
    /// taken.
    pub(crate) fn apply_loss_rows(&mut self, grants: &mut [f64], rows: RowIds<'_>) -> f64 {
        if self.losses.is_empty() {
            return 0.0;
        }
        self.loss_scratch.clear();
        for loss in self.losses.iter_mut() {
            let hit = loss.rng.gen::<f64>() < loss.p;
            if let (true, Some(row)) = (hit, rows.row(loss.session)) {
                let lost = grants[row];
                if lost > 0.0 {
                    self.loss_scratch.push(lost);
                    grants[row] = 0.0;
                }
            }
        }
        let lost = invariant_sum(self.loss_scratch.iter().copied(), &mut self.sum_scratch);
        self.lost_total += lost;
        lost
    }

    /// Feeds the slot's contention outcome to the guard's EMA (computed
    /// from the *offered* demand, before shedding).
    pub fn observe_contention(&mut self, contended: bool) {
        if let Some(guard) = self.guard.as_mut() {
            guard.observe(contended);
        }
    }

    /// Slots on which the guard shed at least one session.
    pub fn shed_slots(&self) -> u64 {
        self.shed_slots
    }

    /// Total session-slots deferred or clamped by the guard.
    pub fn deferred_session_slots(&self) -> u64 {
        self.deferred_session_slots
    }

    /// Total granted capacity destroyed by grant-loss events.
    pub fn lost_total(&self) -> f64 {
        self.lost_total
    }

    /// Slots covered by at least one outage window.
    pub fn outage_slots(&self) -> u64 {
        self.outage_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard_spec() -> DegradationGuardSpec {
        DegradationGuardSpec {
            ema_alpha: 0.1,
            engage_above: 0.8,
            release_below: 0.4,
            backlog_limit: f64::INFINITY,
            shed_fraction: 0.25,
            mode: ShedMode::Defer,
        }
    }

    #[test]
    fn plan_json_roundtrip_is_canonical() {
        let plan = FaultPlan::new()
            .with_event(FaultEvent::Outage {
                start: 100,
                slots: 20,
            })
            .with_event(FaultEvent::Brownout {
                start: 300,
                slots: 50,
                factor: 0.25,
            })
            .with_event(FaultEvent::GrantLoss {
                session: 1,
                p: 0.05,
                seed: 7,
            })
            .with_event(FaultEvent::SessionCrash {
                session: 0,
                slot: 40,
                restart_after: Some(10),
                policy: CrashPolicy::ColdRestart,
            })
            .with_event(FaultEvent::SessionCrash {
                session: 2,
                slot: 90,
                restart_after: None,
                policy: CrashPolicy::Permanent,
            })
            .with_guard(guard_spec());
        plan.validate(3);
        let text = json::to_string(&plan).unwrap();
        let back = FaultPlan::from_json(&crate::json::parse(&text).unwrap(), 3).unwrap();
        assert_eq!(back, plan);
        assert_eq!(json::to_string(&back).unwrap(), text, "canonical");
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let cases: Vec<(FaultPlan, &str, usize)> = vec![
            (
                FaultPlan::new().with_event(FaultEvent::Outage { start: 5, slots: 0 }),
                "at least one slot",
                2,
            ),
            (
                FaultPlan::new().with_event(FaultEvent::Brownout {
                    start: 0,
                    slots: 5,
                    factor: 1.5,
                }),
                "factor must be in [0, 1]",
                2,
            ),
            (
                FaultPlan::new().with_event(FaultEvent::GrantLoss {
                    session: 2,
                    p: 0.5,
                    seed: 1,
                }),
                "out of range",
                2,
            ),
            (
                FaultPlan::new()
                    .with_event(FaultEvent::GrantLoss {
                        session: 0,
                        p: 0.5,
                        seed: 1,
                    })
                    .with_event(FaultEvent::GrantLoss {
                        session: 0,
                        p: 0.1,
                        seed: 2,
                    }),
                "already has a grant_loss",
                2,
            ),
            (
                FaultPlan::new().with_event(FaultEvent::SessionCrash {
                    session: 0,
                    slot: 10,
                    restart_after: None,
                    policy: CrashPolicy::ColdRestart,
                }),
                "requires restart_after",
                2,
            ),
            (
                FaultPlan::new().with_event(FaultEvent::SessionCrash {
                    session: 0,
                    slot: 10,
                    restart_after: Some(5),
                    policy: CrashPolicy::Permanent,
                }),
                "takes no restart_after",
                2,
            ),
            (
                FaultPlan::new()
                    .with_event(FaultEvent::SessionCrash {
                        session: 0,
                        slot: 10,
                        restart_after: Some(20),
                        policy: CrashPolicy::WarmRestart,
                    })
                    .with_event(FaultEvent::SessionCrash {
                        session: 0,
                        slot: 15,
                        restart_after: Some(5),
                        policy: CrashPolicy::WarmRestart,
                    }),
                "overlaps the previous downtime",
                2,
            ),
            (
                FaultPlan::new()
                    .with_event(FaultEvent::SessionCrash {
                        session: 0,
                        slot: 10,
                        restart_after: None,
                        policy: CrashPolicy::Permanent,
                    })
                    .with_event(FaultEvent::SessionCrash {
                        session: 0,
                        slot: 50,
                        restart_after: Some(5),
                        policy: CrashPolicy::ColdRestart,
                    }),
                "nothing can follow",
                2,
            ),
        ];
        for (plan, want, sessions) in cases {
            let text = json::to_string(&plan).unwrap();
            let err = FaultPlan::from_json(&crate::json::parse(&text).unwrap(), sessions)
                .expect_err(want);
            assert!(
                err.msg.contains(want),
                "got \"{}\", want \"{want}\"",
                err.msg
            );
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.validate(sessions)));
            assert!(caught.is_err(), "validate must panic: {want}");
        }
    }

    #[test]
    fn effective_budget_composes_windows() {
        let plan = FaultPlan::new()
            .with_event(FaultEvent::Outage {
                start: 10,
                slots: 5,
            })
            .with_event(FaultEvent::Brownout {
                start: 0,
                slots: 100,
                factor: 0.5,
            })
            .with_event(FaultEvent::Brownout {
                start: 50,
                slots: 10,
                factor: 0.5,
            });
        let mut plane = FaultPlane::new(&plan, 1);
        assert_eq!(plane.effective_budget(0, 100.0), 50.0);
        assert_eq!(plane.effective_budget(12, 100.0), 0.0, "outage wins");
        assert_eq!(plane.effective_budget(55, 100.0), 25.0, "brownouts stack");
        assert_eq!(plane.effective_budget(12, f64::INFINITY), 0.0, "no NaN");
        assert_eq!(plane.outage_slots(), 2);
    }

    #[test]
    fn loss_draws_are_deterministic_and_always_taken() {
        let plan = FaultPlan::new().with_event(FaultEvent::GrantLoss {
            session: 0,
            p: 0.5,
            seed: 42,
        });
        let run = |grants: &mut Vec<f64>| {
            let mut plane = FaultPlane::new(&plan, 1);
            let mut pattern = Vec::new();
            for g in grants.iter_mut() {
                let before = *g;
                let lost = plane.apply_loss(std::slice::from_mut(g));
                pattern.push(lost == before && before > 0.0);
            }
            pattern
        };
        let mut a: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let mut b = a.clone();
        assert_eq!(run(&mut a), run(&mut b), "bit-deterministic");
        assert!(a.contains(&0.0));

        // p = 0 never loses; p = 1 always loses.
        for (p, want_lost) in [(0.0, 0.0), (1.0, 5.0)] {
            let plan = FaultPlan::new().with_event(FaultEvent::GrantLoss {
                session: 0,
                p,
                seed: 9,
            });
            let mut plane = FaultPlane::new(&plan, 1);
            let mut grants = [5.0];
            let lost = plane.apply_loss(&mut grants);
            assert_eq!(lost, want_lost);
        }
    }

    #[test]
    fn guard_sheds_lowest_weight_groups_with_hysteresis() {
        let plan = FaultPlan::new().with_guard(guard_spec());
        let mut plane = FaultPlane::new(&plan, 8);
        let weights: Vec<f64> = (0..8).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut demands = vec![100.0; 8];
        // Not engaged yet: EMA is 0.
        assert_eq!(plane.shed(0.0, &mut demands, Some(&weights)), 0);
        // Saturate the EMA past engage_above.
        for _ in 0..50 {
            plane.observe_contention(true);
        }
        let mut demands = vec![100.0; 8];
        let shed = plane.shed(0.0, &mut demands, Some(&weights));
        // ceil(0.25 · 8) = 2: exactly the weight-1 group {0, 4}.
        assert_eq!(shed, 2);
        assert_eq!(demands[0], 0.0);
        assert_eq!(demands[4], 0.0);
        assert!(demands
            .iter()
            .enumerate()
            .all(|(i, &d)| d == 100.0 || i == 0 || i == 4));
        // Hysteresis: one idle observation is not enough to release.
        plane.observe_contention(false);
        let mut demands = vec![100.0; 8];
        assert!(plane.shed(0.0, &mut demands, Some(&weights)) > 0);
        // Decay the EMA below release_below: the guard lets go.
        for _ in 0..50 {
            plane.observe_contention(false);
        }
        let mut demands = vec![100.0; 8];
        assert_eq!(plane.shed(0.0, &mut demands, Some(&weights)), 0);
        assert_eq!(demands, vec![100.0; 8]);
        assert!(plane.shed_slots() >= 2);
        assert!(plane.deferred_session_slots() >= 4);
    }

    #[test]
    fn guard_backlog_trigger_and_clamp_mode() {
        let spec = DegradationGuardSpec {
            backlog_limit: 1_000.0,
            mode: ShedMode::Clamp { factor: 0.5 },
            ..guard_spec()
        };
        let plan = FaultPlan::new().with_guard(spec);
        let mut plane = FaultPlane::new(&plan, 4);
        let mut demands = vec![80.0; 4];
        // Backlog over the limit engages immediately, EMA still 0; uniform
        // weights form one group, so the whole fleet is clamped.
        let shed = plane.shed(2_000.0, &mut demands, None);
        assert_eq!(shed, 4);
        assert_eq!(demands, vec![40.0; 4]);
    }
}
