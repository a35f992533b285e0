//! The shared-uplink contention plane: M sessions, one backhaul.
//!
//! The paper models a single device whose renderer is the bottleneck; at
//! fleet scale the binding resource is usually the *shared* link the
//! sessions stream over. This module couples the sessions of a
//! [`Scenario`] through per-slot aggregate admission control:
//!
//! 1. **Poll** — every session's nominal service capacity for the slot is
//!    drawn ([`SessionBatch::fill_demands`]), together with its live
//!    backlog ([`SessionBatch::fill_backlogs`]);
//! 2. **Admit** — an [`UplinkPolicy`] grants each session an effective
//!    capacity, never above its demand, with the grand total never above
//!    the slot's budget ([`BudgetProfile::budget_at`]);
//! 3. **Complete** — the slot finishes through
//!    [`SessionBatch::step_slot_granted`] with the granted capacities, and
//!    the slot's aggregates feed the uplink telemetry.
//!
//! ## Time-varying budgets
//!
//! The backhaul budget is a [`BudgetProfile`] evaluated per slot:
//! [`BudgetProfile::Constant`] (the PR-3 behavior),
//! [`BudgetProfile::Diurnal`] (a sinusoid around a mean — the
//! day/night backhaul cycle), [`BudgetProfile::PiecewiseSteps`]
//! (scheduled capacity changes) and [`BudgetProfile::Trace`] (a measured
//! per-slot budget series). [`UplinkSummary::utilization`] accordingly
//! normalizes by the *realized mean* budget, not a single constant.
//!
//! ## Policies
//!
//! - [`UplinkPolicy::Unconstrained`] — no admission control;
//! - [`UplinkPolicy::ProportionalShare`] — scarcity pro rata to demand
//!   (backlog-blind);
//! - [`UplinkPolicy::MaxWeightBacklog`] — largest queues first, the
//!   Lyapunov drift-minimizing choice;
//! - [`UplinkPolicy::WeightedMaxWeight`] — max-weight on `w_i · Q_i`,
//!   expressing per-tenant priority classes; uniform weights reproduce
//!   `MaxWeightBacklog` bit-for-bit;
//! - [`UplinkPolicy::AlphaFair`] — the demand-weighted α-fair family:
//!   `α = 1` is proportional fairness (pro rata to demand), `α → ∞` is
//!   max-min fairness (deterministic water-filling to a common level).
//!
//! Coupling sessions threatens the batch runtime's determinism contract,
//! so every policy is written to be **order-invariant bit-for-bit**:
//! aggregate sums add their nonzero operands in ascending value order from
//! `+0.0` (permutation invariant; zeros change no bit), max-weight
//! water-fills over descending-priority *groups* (ties share pro rata)
//! instead of picking an arbitrary order within a tie, and α-fair derives
//! its water level from permutation-invariant sums with pointwise capping.
//! `tests/shared_uplink.rs` and `tests/uplink_adaptive.rs` pin the
//! resulting invariants: per-slot conservation under a binding budget,
//! session-order / chunk-size / serial-vs-parallel invariance for every
//! policy, and [`UplinkPolicy::Unconstrained`] ≡ the uncoupled batch.
//!
//! ## Rows, not ids
//!
//! [`SharedUplink::step_slot`] walks the batch's physical rows (live, down
//! and not-yet-compacted sessions), never every id ever issued: it polls,
//! sums, sheds, allocates, loses and grants per row, so a churning cell's
//! slot cost follows its live fleet, not its join count. This is exact. An
//! id without a row demands and backlogs `+0.0`, which the sums skip and
//! every policy grants back as `+0.0`, and every policy's grants permute
//! with their sessions. Only the outputs take the id-indexed view:
//! [`SharedUplink::last_grants`], and the degradation guard's shed count,
//! which still counts every issued id (see
//! [`crate::fault::DegradationGuardSpec::shed_fraction`]). The public
//! id-indexed calls ([`SessionBatch::fill_backlogs`],
//! [`SessionBatch::fill_demands`], [`UplinkPolicy::allocate`],
//! [`crate::fault::FaultPlane::shed`],
//! [`crate::fault::FaultPlane::apply_loss`],
//! [`SessionBatch::step_slot_granted`]) scatter or gather around the same
//! row code, so a slot re-driven through them reproduces `step_slot` bit
//! for bit.
//!
//! ## Uplink-aware `V` adaptation
//!
//! A tenant that keeps its Lyapunov `V` fixed while the link starves it
//! parks its backlog at the fixed-`V` plateau. [`UplinkVAdaptSpec`]
//! (surfaced as `SessionSpec::uplink_v_adapt`) closes the loop: each
//! contended slot the session observes its grant/demand ratio and feeds an
//! [`arvis_lyapunov::adaptive::GrantRatioV`] — a bounded multiplicative
//! update with a hysteresis band — so saturation shrinks `V` (shedding
//! quality and arrivals) and slack restores it. The adaptation only acts
//! through the contention plane's granted stepping; uncoupled runs never
//! touch it.
//!
//! ## Example: one declarative file describes the contended fleet
//!
//! ```
//! use arvis_core::experiment::ExperimentConfig;
//! use arvis_core::scenario::{ControllerSpec, Scenario};
//! use arvis_core::uplink::{run_contended, BudgetProfile, UplinkPolicy, UplinkSpec};
//! use arvis_quality::DepthProfile;
//!
//! let profile = DepthProfile::from_parts(
//!     5,
//!     vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
//!     vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
//! );
//! let base = ExperimentConfig::new(profile, 2_000.0, 400).with_controller_v(1e7);
//!
//! // 8 tenants sharing a diurnal backhaul averaging 70% of their
//! // aggregate demand, served largest-queue-first.
//! let scenario = Scenario::replicated(&base, ControllerSpec::Proposed { v: 1e7 }, 8)
//!     .with_uplink(UplinkSpec::with_profile(
//!         BudgetProfile::Diurnal {
//!             mean: 0.7 * 8.0 * 2_000.0,
//!             amplitude: 0.2 * 8.0 * 2_000.0,
//!             period: 100,
//!             phase: 0.0,
//!         },
//!         UplinkPolicy::MaxWeightBacklog,
//!     ));
//!
//! let run = run_contended(&scenario);
//! assert_eq!(run.summaries.len(), 8);
//! assert!(run.uplink.contended_slots > 0, "budget binds below the mean");
//! assert!(run.uplink.utilization() > 0.9, "scarce budget mostly spent");
//! ```

use serde::{Deserialize, Serialize};

use arvis_lyapunov::adaptive::GrantRatioV;

use crate::fault::count_weight;
use crate::json::{self, ensure, Broken, Rules};
use crate::scenario::Scenario;
use crate::session::{RowIds, SessionBatch};
use crate::telemetry::{CsvRow, SessionSummary, TelemetrySink};

/// Sums the nonzero `values` in ascending value order from `+0.0` (scratch
/// holds the sorted copy), so the total is bit-identical under any
/// permutation of `values` — the primitive every aggregate in this module
/// is built on, shared with the fault plane's lost-grant aggregate.
/// Skipping zeros of either sign is exact: a fold from `+0.0` never holds
/// `−0.0`, so adding a zero anywhere changes no bit. With no nonzero
/// operand, the empty sum included, the result is `+0.0`.
pub(crate) fn invariant_sum(values: impl Iterator<Item = f64>, scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend(values.filter(|&v| v != 0.0));
    scratch.sort_unstable_by(|a, b| a.total_cmp(b));
    scratch.iter().fold(0.0, |sum, &v| sum + v)
}

/// A per-slot backhaul budget, evaluated as a pure function of the slot
/// index — deterministic by construction, so time-varying budgets keep the
/// batch runtime's bit-reproducibility.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BudgetProfile {
    /// The same budget every slot (`f64::INFINITY` = never binds).
    Constant(f64),
    /// A sinusoidal day/night cycle:
    /// `mean + amplitude · sin(2π · (slot / period + phase))`.
    Diurnal {
        /// Time-average budget.
        mean: f64,
        /// Swing around the mean (`amplitude <= mean` keeps the budget
        /// non-negative).
        amplitude: f64,
        /// Cycle length in slots.
        period: u64,
        /// Phase offset in cycles (`0.25` starts at the peak).
        phase: f64,
    },
    /// Scheduled capacity changes: each step's budget holds from its
    /// `start` slot until the next step. The first step must start at
    /// slot 0.
    PiecewiseSteps(Vec<BudgetStep>),
    /// A measured per-slot budget series; slots past the end hold the last
    /// value.
    Trace(Vec<f64>),
}

/// One step of a [`BudgetProfile::PiecewiseSteps`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetStep {
    /// First slot this budget applies to.
    pub start: u64,
    /// The per-slot budget from `start` on.
    pub budget: f64,
}

impl BudgetProfile {
    /// The budget for `slot`.
    pub fn budget_at(&self, slot: u64) -> f64 {
        match self {
            BudgetProfile::Constant(b) => *b,
            BudgetProfile::Diurnal {
                mean,
                amplitude,
                period,
                phase,
            } => {
                let cycles = slot as f64 / *period as f64 + phase;
                mean + amplitude * (std::f64::consts::TAU * cycles).sin()
            }
            BudgetProfile::PiecewiseSteps(steps) => {
                let idx = steps.partition_point(|s| s.start <= slot);
                steps[idx.saturating_sub(1)].budget
            }
            BudgetProfile::Trace(budgets) => {
                let idx = (slot as usize).min(budgets.len() - 1);
                budgets[idx]
            }
        }
    }

    /// The profile's rule walk: every budget non-negative and not NaN, a
    /// `Diurnal` swing that stays non-negative (`amplitude ≤ mean`) with a
    /// positive `period` and a finite phase, a `PiecewiseSteps` schedule
    /// that is non-empty, starts at slot 0 and ascends strictly, and a
    /// non-empty `Trace` (a trace with no entries has no slot-0 budget).
    pub(crate) fn check(&self) -> Rules {
        // `b >= 0.0` is false for NaN: one comparison rejects both.
        let budget = |b: f64, path: &str| ensure(b >= 0.0, path, || format!("bad budget {b}"));
        match self {
            BudgetProfile::Constant(b) => budget(*b, "budget"),
            BudgetProfile::Diurnal {
                mean,
                amplitude,
                period,
                phase,
            } => {
                ensure(mean.is_finite() && *mean >= 0.0, "mean", || {
                    format!("bad diurnal mean {mean}")
                })?;
                ensure(*amplitude >= 0.0 && amplitude <= mean, "amplitude", || {
                    format!("diurnal amplitude must be in [0, mean], got {amplitude}")
                })?;
                ensure(*period > 0, "period", || {
                    "diurnal period must be positive".to_string()
                })?;
                ensure(phase.is_finite(), "phase", || {
                    format!("bad diurnal phase {phase}")
                })
            }
            BudgetProfile::PiecewiseSteps(steps) => {
                ensure(!steps.is_empty(), "steps", || {
                    "need at least one budget step".to_string()
                })?;
                for (i, step) in steps.iter().enumerate() {
                    let start = |msg: &str| Broken {
                        path: format!("steps[{i}].start"),
                        msg: msg.to_string(),
                    };
                    if i == 0 && step.start != 0 {
                        return Err(start("first budget step must start at slot 0"));
                    }
                    if i > 0 && step.start <= steps[i - 1].start {
                        return Err(start("budget steps must have strictly ascending starts"));
                    }
                    budget(step.budget, &format!("steps[{i}].budget"))?;
                }
                Ok(())
            }
            BudgetProfile::Trace(budgets) => {
                ensure(!budgets.is_empty(), "budgets", || {
                    "need at least one traced budget".to_string()
                })?;
                match budgets.iter().position(|b| b.is_nan() || *b < 0.0) {
                    Some(i) => budget(budgets[i], &format!("budgets[{i}]")),
                    None => Ok(()),
                }
            }
        }
    }

    /// Validates the profile's parameters.
    ///
    /// # Panics
    ///
    /// Panics when any budget value is NaN or negative, a `Diurnal` swing
    /// can go negative (`amplitude > mean`) or its `period` is zero, a
    /// `PiecewiseSteps` schedule is empty / unsorted / does not start at
    /// slot 0, or a `Trace` is empty.
    pub fn validate(&self) {
        json::enforce(self.check());
    }
}

json::codec!(BudgetProfile as "budget profile type" {
    Constant "constant" (budget: Inf),
    Diurnal "diurnal" { mean, amplitude, period, phase },
    PiecewiseSteps "piecewise_steps" (steps),
    Trace "trace" (budgets: Inf),
} check);

json::codec!(BudgetStep { start, budget: Inf });

/// Caller-owned scratch for the allocation hot path (sorted-sum buffer,
/// priority order, per-session keys).
#[derive(Debug, Default)]
struct AllocScratch {
    sums: Vec<f64>,
    order: Vec<usize>,
    keys: Vec<f64>,
}

/// How a shared uplink divides its per-slot budget among contending
/// sessions.
///
/// Every policy grants each session at most its demand, grants at most the
/// budget in total, and — whenever aggregate demand fits the budget —
/// grants every demand in full (work conservation). They differ only in
/// how scarcity is split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UplinkPolicy {
    /// No admission control: every demand is granted verbatim, the budget
    /// is ignored. Bit-identical to running the batch uncoupled.
    Unconstrained,
    /// Scarcity is split pro rata to demand: `g_i = d_i · B / Σd` while
    /// `Σd > B`. Backlog-blind — an idle tenant's reserved share is
    /// wasted while a loaded tenant diverges.
    ProportionalShare,
    /// The Lyapunov-natural policy: budget water-fills sessions in
    /// descending backlog order (largest queues first), equal-backlog
    /// groups sharing pro rata to demand. This is max-weight scheduling
    /// with weight `Q_i(τ)`, the drift-minimizing choice.
    MaxWeightBacklog,
    /// Max-weight with per-tenant priorities: sessions are served in
    /// descending `w_i · Q_i(τ)` order, equal-priority groups sharing pro
    /// rata to demand (the same tie-group construction as
    /// [`UplinkPolicy::MaxWeightBacklog`], so order-invariance survives).
    /// A gold tenant with `w = 4` tolerates a 4× smaller backlog than a
    /// `w = 1` tenant before outranking it. Uniform weights reproduce
    /// `MaxWeightBacklog` bit-for-bit.
    WeightedMaxWeight {
        /// Per-session priority weights, batch order (must be finite and
        /// positive, one per session).
        weights: Vec<f64>,
    },
    /// The demand-weighted α-fair family: maximizes
    /// `Σ_i d_i · x_i^(1-α) / (1-α)` subject to `Σ x_i ≤ B`,
    /// `0 ≤ x_i ≤ d_i`, whose KKT solution is
    /// `x_i = min(d_i, θ · d_i^(1/α))` with the water level `θ` chosen to
    /// spend the budget. `α = 1` allocates pro rata to demand
    /// (proportional fairness ≡ [`UplinkPolicy::ProportionalShare`]);
    /// `α = ∞` allocates max-min fair (equal levels, capped at demand).
    /// Backlog-blind like `ProportionalShare`, but tunably less biased
    /// toward heavy demanders as `α` grows.
    AlphaFair {
        /// Fairness exponent, `α ≥ 1` (`f64::INFINITY` = max-min).
        alpha: f64,
    },
}

impl UplinkPolicy {
    /// Machine-readable policy name (CSV column value).
    pub fn name(&self) -> &'static str {
        match self {
            UplinkPolicy::Unconstrained => "unconstrained",
            UplinkPolicy::ProportionalShare => "proportional_share",
            UplinkPolicy::MaxWeightBacklog => "max_weight_backlog",
            UplinkPolicy::WeightedMaxWeight { .. } => "weighted_max_weight",
            UplinkPolicy::AlphaFair { .. } => "alpha_fair",
        }
    }

    /// The policy's rule walk (session-count-independent; weight-length
    /// mismatches surface in [`UplinkPolicy::allocate`] and at the scenario
    /// level): positive finite weights, `α ≥ 1`.
    pub(crate) fn check(&self) -> Rules {
        match self {
            UplinkPolicy::WeightedMaxWeight { weights } => {
                ensure(!weights.is_empty(), "weights", || {
                    "need at least one weight".to_string()
                })?;
                match weights.iter().position(|w| !(w.is_finite() && *w > 0.0)) {
                    Some(i) => Err(Broken {
                        path: format!("weights[{i}]"),
                        msg: format!(
                            "bad max-weight weight {} (must be finite and positive)",
                            weights[i]
                        ),
                    }),
                    None => Ok(()),
                }
            }
            UplinkPolicy::AlphaFair { alpha } => ensure(*alpha >= 1.0, "alpha", || {
                format!("alpha must be >= 1 (inf = max-min), got {alpha}")
            }),
            UplinkPolicy::Unconstrained
            | UplinkPolicy::ProportionalShare
            | UplinkPolicy::MaxWeightBacklog => Ok(()),
        }
    }

    /// Validates the policy's own parameters.
    ///
    /// # Panics
    ///
    /// Panics when a `WeightedMaxWeight` weight is non-finite or
    /// non-positive, or an `AlphaFair` exponent is NaN or below 1.
    pub fn validate(&self) {
        json::enforce(self.check());
    }

    /// Computes per-session grants for one slot into `grants` (resized to
    /// match), given every session's live backlog and polled demand.
    ///
    /// Deterministic and order-invariant: permuting the sessions (together
    /// with any per-session policy weights) permutes the grants
    /// bit-for-bit. Each grant is in `[0, demand_i]`; the granted total
    /// never exceeds `budget` beyond f64 rounding (each scarce slot
    /// performs one global scale, one scale per priority group, or one
    /// water-level multiply per session, so the accumulated error is a few
    /// ulps). A zero budget of either sign yields exactly `+0.0` grants.
    /// This is the id-indexed form of the allocation
    /// [`SharedUplink::step_slot`] runs over the batch's rows.
    ///
    /// # Contract
    ///
    /// Backlogs and demands must be finite and non-negative, and are
    /// checked in every build. A NaN backlog would otherwise sort above
    /// every finite queue in the max-weight order and capture the whole
    /// budget, and one infinite demand would zero `ProportionalShare`'s
    /// scale and produce `inf · 0 = NaN` grants; both are programming
    /// errors upstream, not allocator states.
    ///
    /// # Panics
    ///
    /// Panics when `backlogs` and `demands` disagree in length, when
    /// `budget` is NaN or negative (`f64::INFINITY` is allowed and never
    /// binds), when a backlog or demand is non-finite or negative, when a
    /// `WeightedMaxWeight` weight vector does not match the session count,
    /// or when [`UplinkPolicy::validate`] rejects the policy parameters.
    pub fn allocate(&self, budget: f64, backlogs: &[f64], demands: &[f64], grants: &mut Vec<f64>) {
        self.validate();
        let mut scratch = AllocScratch::default();
        let total = invariant_sum(demands.iter().copied(), &mut scratch.sums);
        let rows = RowIds::Identity(demands.len());
        self.allocate_with(budget, rows, backlogs, demands, total, grants, &mut scratch);
    }

    /// [`UplinkPolicy::allocate`] over one slot's per-row vectors, with
    /// caller-owned scratch buffers and the (permutation-invariant)
    /// aggregate demand `total` already computed — the allocation-free
    /// per-slot path of [`SharedUplink`]. Row `p` belongs to session
    /// `rows.id(p)`, whose weight a weighted policy reads from its
    /// id-indexed weight vector.
    #[allow(clippy::too_many_arguments)] // one slot's inputs, outputs and scratch
    fn allocate_with(
        &self,
        budget: f64,
        rows: RowIds<'_>,
        backlogs: &[f64],
        demands: &[f64],
        total: f64,
        grants: &mut Vec<f64>,
        scratch: &mut AllocScratch,
    ) {
        assert_eq!(
            backlogs.len(),
            demands.len(),
            "backlogs and demands must be parallel arrays"
        );
        assert!(!budget.is_nan() && budget >= 0.0, "bad budget {budget}");
        // −0.0 + 0.0 = +0.0: no scale or water level below can be −0.0.
        let budget = budget + 0.0;
        assert!(
            backlogs.iter().all(|q| q.is_finite() && *q >= 0.0),
            "backlogs must be finite and non-negative: {backlogs:?}"
        );
        assert!(
            demands.iter().all(|d| d.is_finite() && *d >= 0.0),
            "demands must be finite and non-negative: {demands:?}"
        );
        grants.clear();
        grants.extend_from_slice(demands);
        if matches!(self, UplinkPolicy::Unconstrained) {
            return;
        }
        if let UplinkPolicy::WeightedMaxWeight { weights } = self {
            assert_eq!(
                weights.len(),
                rows.issued(),
                "need one max-weight weight per session"
            );
        }
        if total <= budget {
            return; // slack: every demand granted in full, bit-for-bit
        }
        let AllocScratch { sums, order, keys } = scratch;
        match self {
            UplinkPolicy::Unconstrained => unreachable!(),
            UplinkPolicy::ProportionalShare => {
                // total > budget ≥ 0 ⟹ total > 0: the scale is finite.
                let scale = budget / total;
                for g in grants.iter_mut() {
                    *g *= scale;
                }
            }
            UplinkPolicy::MaxWeightBacklog => {
                // Priority = the raw backlog (max-weight with w ≡ 1).
                max_weight_fill(backlogs, demands, budget, grants, sums, order);
            }
            UplinkPolicy::WeightedMaxWeight { weights } => {
                // Priority = w_i · Q_i; uniform w = 1 gives bit-identical
                // keys (1.0 · Q == Q), hence bit-identical grants.
                keys.clear();
                keys.extend(
                    backlogs
                        .iter()
                        .enumerate()
                        .map(|(row, &q)| weights[rows.id(row)] * q),
                );
                max_weight_fill(keys, demands, budget, grants, sums, order);
            }
            UplinkPolicy::AlphaFair { alpha } => {
                alpha_fair_fill(*alpha, demands, budget, grants, sums, order, keys);
            }
        }
    }
}

json::codec!(UplinkPolicy as "uplink policy type" {
    Unconstrained "unconstrained",
    ProportionalShare "proportional_share",
    MaxWeightBacklog "max_weight_backlog",
    WeightedMaxWeight "weighted_max_weight" { weights },
    AlphaFair "alpha_fair" { alpha: Inf },
} check);

/// Water-fills `budget` over sessions in descending `priority` order:
/// whole equal-priority groups are served at full demand while the budget
/// lasts, the group where it runs dry shares the remainder pro rata to
/// demand, and all lower-priority groups get zero. Order-invariant: groups
/// are formed by priority *value*, their demand totals by value-sorted
/// sums, and the in-group scale is one multiply per session. Sessions whose
/// demand is exactly `+0.0` are not ordered: wherever they would rank, their
/// grant is `+0.0` (it starts at the demand and is only zeroed or scaled by a
/// finite `scale ≥ +0.0`, the budget never being `−0.0`), and they add
/// nothing to their group's total.
fn max_weight_fill(
    priorities: &[f64],
    demands: &[f64],
    budget: f64,
    grants: &mut [f64],
    sums: &mut Vec<f64>,
    order: &mut Vec<usize>,
) {
    order.clear();
    order.extend((0..priorities.len()).filter(|&i| demands[i].to_bits() != 0));
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
        let group_total = invariant_sum(group.iter().map(|&i| demands[i]), sums);
        if group_total <= remaining {
            // Whole group served at full demand (grants already hold the
            // demands).
            remaining -= group_total;
        } else {
            // The budget runs dry inside this group: split what is left
            // pro rata to demand, and starve every strictly-lower
            // priority group. group_total > remaining ≥ 0 ⟹
            // group_total > 0.
            let scale = remaining / group_total;
            for &i in group {
                grants[i] *= scale;
            }
            for &i in &order[end..] {
                grants[i] = 0.0;
            }
            return;
        }
        at = end;
    }
}

/// The α-fair allocation `x_i = min(d_i, θ · d_i^(1/α))` by deterministic
/// water-filling: repeatedly compute the tentative water level `θ` from
/// the remaining budget and the active sessions' share weights, cap every
/// session whose fair share meets its demand, and stop when no new caps
/// appear. Each round's `θ` comes from permutation-invariant sums and the
/// capping test is pointwise, so the result is order-invariant bitwise.
/// Converges in at most `n` rounds (every round caps a session or stops).
fn alpha_fair_fill(
    alpha: f64,
    demands: &[f64],
    budget: f64,
    grants: &mut [f64],
    sums: &mut Vec<f64>,
    active: &mut Vec<usize>,
    shares: &mut Vec<f64>,
) {
    let inv_alpha = if alpha.is_finite() { 1.0 / alpha } else { 0.0 };
    // Share weights s_i = d_i^(1/α), special-cased so α = 1 is exactly
    // pro-rata (s = d, no powf rounding) and α = ∞ exactly max-min
    // (s = 1). Zero-demand sessions keep their grant of 0 and never join
    // the active set.
    shares.clear();
    shares.extend(demands.iter().map(|&d| {
        if d <= 0.0 {
            0.0
        } else if inv_alpha == 1.0 {
            d
        } else if inv_alpha == 0.0 {
            1.0
        } else {
            d.powf(inv_alpha)
        }
    }));
    active.clear();
    active.extend((0..demands.len()).filter(|&i| demands[i] > 0.0));
    let mut remaining = budget;
    while !active.is_empty() {
        let share_total = invariant_sum(active.iter().map(|&i| shares[i]), sums);
        // Active sessions have d > 0 hence s > 0, so share_total > 0.
        let level = remaining / share_total;
        let capped = |i: usize| level * shares[i] >= demands[i];
        if !active.iter().any(|&i| capped(i)) {
            for &i in active.iter() {
                grants[i] = level * shares[i];
            }
            return;
        }
        // Capped sessions keep their full demand (grants already hold the
        // demands); charge them against the budget order-invariantly and
        // re-level the rest.
        let freed = invariant_sum(
            active
                .iter()
                .copied()
                .filter(|&i| capped(i))
                .map(|i| demands[i]),
            sums,
        );
        remaining = (remaining - freed).max(0.0);
        active.retain(|&i| !capped(i));
    }
}

/// Declarative description of a shared uplink: a per-slot backhaul budget
/// profile (service units per slot, the same units as
/// [`crate::experiment::ServiceSpec`] rates) and the policy dividing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UplinkSpec {
    /// Per-slot aggregate service the backhaul can carry.
    pub budget: BudgetProfile,
    /// How scarcity is divided.
    pub policy: UplinkPolicy,
}

impl UplinkSpec {
    /// A shared uplink with a constant per-slot budget — the common case,
    /// shorthand for [`UplinkSpec::with_profile`] +
    /// [`BudgetProfile::Constant`].
    ///
    /// # Panics
    ///
    /// Panics when `budget` is NaN or negative (`f64::INFINITY` is a
    /// valid never-binding budget), or the policy parameters are invalid.
    pub fn new(budget: f64, policy: UplinkPolicy) -> UplinkSpec {
        UplinkSpec::with_profile(BudgetProfile::Constant(budget), policy)
    }

    /// A shared uplink with a time-varying budget profile.
    ///
    /// # Panics
    ///
    /// Panics when [`BudgetProfile::validate`] or
    /// [`UplinkPolicy::validate`] rejects the parameters.
    pub fn with_profile(budget: BudgetProfile, policy: UplinkPolicy) -> UplinkSpec {
        budget.validate();
        policy.validate();
        UplinkSpec { budget, policy }
    }

    /// The no-op uplink: infinite budget, [`UplinkPolicy::Unconstrained`].
    pub fn unconstrained() -> UplinkSpec {
        UplinkSpec {
            budget: BudgetProfile::Constant(f64::INFINITY),
            policy: UplinkPolicy::Unconstrained,
        }
    }
}

json::codec!(UplinkSpec { budget, policy });

/// Per-session uplink-aware `V` adaptation (see
/// [`arvis_lyapunov::adaptive::GrantRatioV`]): the session observes its
/// grant/demand ratio each contended slot and scales its Lyapunov `V`
/// with a bounded multiplicative update and a hysteresis band, shedding
/// quality instead of backlog when the link saturates.
///
/// Attach to a session via `SessionSpec::uplink_v_adapt`
/// ([`crate::scenario::SessionSpec`]); only sessions running
/// [`crate::scenario::ControllerSpec::Proposed`] can adapt (the knob
/// scales that controller's `V`). The adaptation acts only through
/// [`SessionBatch::step_slot_granted`] — uncoupled runs are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkVAdaptSpec {
    /// Hysteresis band floor on the smoothed grant ratio: below it `V`
    /// shrinks.
    pub low: f64,
    /// Hysteresis band ceiling: above it `V` grows back (never past its
    /// configured starting point).
    pub high: f64,
    /// Per-slot multiplicative step in `(0, 1)`.
    pub step: f64,
    /// Floor on the adapted `V`, as a fraction of the starting `V`.
    pub min_v_scale: f64,
}

impl Default for UplinkVAdaptSpec {
    /// Shrink `V` 5%/slot once the smoothed grant ratio falls below 0.85,
    /// recover once it exceeds 0.95, never below `1% ×` the starting `V`.
    ///
    /// The floor matters: it bounds how far quality falls during an
    /// outage *and* how long recovery takes once the link comes back
    /// (multiplicative growth from a `1e-2` floor needs ~90 slack slots
    /// at 5%/slot; a `1e-4` floor would need twice that and can starve
    /// quality forever under short recovery windows like diurnal peaks).
    fn default() -> UplinkVAdaptSpec {
        UplinkVAdaptSpec {
            low: 0.85,
            high: 0.95,
            step: 0.05,
            min_v_scale: 1e-2,
        }
    }
}

impl UplinkVAdaptSpec {
    /// The knob's rule walk: the `GrantRatioV` constructor invariants
    /// (`0 < low ≤ high ≤ 1`, `step ∈ (0, 1)`) and `min_v_scale ∈ (0, 1]`.
    pub(crate) fn check(&self) -> Rules {
        let UplinkVAdaptSpec {
            low,
            high,
            step,
            min_v_scale,
        } = *self;
        ensure(low > 0.0 && low <= high && high <= 1.0, "low", || {
            format!("need 0 < low <= high <= 1, got [{low}, {high}]")
        })?;
        ensure(step > 0.0 && step < 1.0, "step", || {
            format!("step must be in (0, 1), got {step}")
        })?;
        ensure(
            min_v_scale > 0.0 && min_v_scale <= 1.0,
            "min_v_scale",
            || format!("min_v_scale must be in (0, 1], got {min_v_scale}"),
        )
    }

    /// Builds the runnable adapter state around a controller's starting
    /// `V`.
    ///
    /// # Panics
    ///
    /// Propagates the [`GrantRatioV`] constructor panics (bad band, step
    /// outside `(0, 1)`, non-positive scales).
    pub fn build(&self, base_v: f64) -> GrantRatioV {
        json::enforce(self.check());
        GrantRatioV::new(base_v, self.low, self.high, self.step)
            .with_bounds(base_v * self.min_v_scale, base_v)
    }
}

json::codec!(UplinkVAdaptSpec { low, high, step, min_v_scale } check);

/// One slot's aggregate uplink observations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkSlotStats {
    /// The simulated slot.
    pub slot: u64,
    /// The slot's budget ([`BudgetProfile::budget_at`]).
    pub budget: f64,
    /// Aggregate demand `Σ d_i(τ)` polled from the sessions.
    pub demand: f64,
    /// Aggregate service granted by the policy.
    pub granted: f64,
    /// Aggregate backlog `Σ Q_i(τ)` observed at the start of the slot.
    pub backlog: f64,
    /// `true` when the budget bound (aggregate demand exceeded it).
    ///
    /// Judged on the *offered* demand — what the sessions polled before
    /// the degradation guard shed anything — so the signal reflects real
    /// pressure, not the guard's own relief.
    pub contended: bool,
    /// Session ids at or below the degradation guard's threshold weight
    /// this slot (0 without a guard or while it is released — see
    /// [`crate::fault`]). The count covers every id ever issued, departed
    /// and crashed ones included, as the threshold does (see
    /// [`crate::fault::DegradationGuardSpec::shed_fraction`]), so under
    /// churn it can exceed the live sessions: it reads as the ids the guard
    /// selects, not the demands it actually cut.
    pub shed_sessions: u64,
    /// Granted capacity destroyed by grant-loss faults this slot (`+0.0` if none).
    pub lost: f64,
    /// Sessions down or dead after this slot.
    pub down_sessions: u64,
}

/// Streaming aggregate summary of a contended run (O(1) memory).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkSummary {
    /// Slots driven through the uplink.
    pub slots: u64,
    /// Time-average per-slot budget (infinite when any slot's budget was
    /// infinite).
    pub mean_budget: f64,
    /// Slots whose aggregate demand exceeded the budget.
    pub contended_slots: u64,
    /// Time-average aggregate demand.
    pub mean_demand: f64,
    /// Time-average aggregate granted service.
    pub mean_granted: f64,
    /// Time-average aggregate backlog.
    pub mean_backlog: f64,
    /// Largest aggregate backlog observed.
    pub peak_backlog: f64,
    /// Slots on which the degradation guard shed at least one session
    /// (0 on fault-free runs — see [`crate::fault`]).
    pub shed_slots: u64,
    /// The sum of [`UplinkSlotStats::shed_sessions`] over the run: ids the
    /// guard selected per slot, departed and crashed ids included (see
    /// [`crate::fault::DegradationGuardSpec::shed_fraction`]).
    pub deferred_session_slots: u64,
    /// Total granted capacity destroyed by grant-loss faults.
    pub lost_total: f64,
    /// Slots covered by at least one outage window.
    pub outage_slots: u64,
    /// Total session-slots spent down or dead.
    pub down_session_slots: u64,
}

impl UplinkSummary {
    /// Fraction of slots whose demand exceeded the budget.
    pub fn contended_fraction(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.contended_slots as f64 / self.slots as f64
        }
    }

    /// Mean granted service as a fraction of the *mean* budget, so the
    /// figure stays meaningful under time-varying [`BudgetProfile`]s.
    /// Documented 0 for a zero-slot run, a zero mean budget, or whenever
    /// any slot's budget was infinite (the mean is then infinite and
    /// "utilization of an unbounded link" is not a meaningful ratio).
    pub fn utilization(&self) -> f64 {
        if self.mean_budget.is_finite() && self.mean_budget > 0.0 {
            self.mean_granted / self.mean_budget
        } else {
            0.0
        }
    }
}

/// The contention-plane driver: owns the uplink spec, the per-slot scratch
/// vectors and the streaming aggregate accumulators, and steps a
/// [`SessionBatch`] slot by slot through poll → admit → complete.
///
/// The driver is deliberately separate from the batch: the same
/// `SharedUplink` can drive batches with any [`TelemetrySink`], and a
/// batch driven with [`UplinkSpec::unconstrained`] is bit-identical to
/// [`SessionBatch::run`].
#[derive(Debug)]
pub struct SharedUplink {
    spec: UplinkSpec,
    /// This slot's backlogs, demands and grants, one per physical row of
    /// the batch ([`SessionBatch::row_ids`]).
    backlogs: Vec<f64>,
    demands: Vec<f64>,
    row_grants: Vec<f64>,
    /// The last slot's grants by stable id ([`SharedUplink::last_grants`]).
    grants: Vec<f64>,
    /// The ids the last slot granted to: their entries in `grants` are
    /// reset to `+0.0` before the next slot writes its rows, so an id
    /// whose row has since been compacted away reads `+0.0`.
    granted_ids: Vec<usize>,
    /// A weighted policy's ids per weight value (see
    /// [`crate::fault::count_weight`]), kept by
    /// [`SharedUplink::register_join`] for the degradation guard.
    weight_levels: Vec<(f64, u64)>,
    scratch: AllocScratch,
    /// The fault plane, when the scenario declares a (non-empty) fault
    /// plan. `None` is *the* fault-free path — not a plane of no-op
    /// events — so fault-free runs execute exactly the pre-fault code.
    fault: Option<crate::fault::FaultPlane>,
    slots: u64,
    contended_slots: u64,
    budget_sum: f64,
    demand_sum: f64,
    granted_sum: f64,
    backlog_sum: f64,
    peak_backlog: f64,
    down_session_slot_sum: u64,
}

impl SharedUplink {
    /// A driver for the given uplink spec.
    ///
    /// # Panics
    ///
    /// Panics when the spec's budget profile or policy parameters are
    /// invalid (see [`UplinkSpec::with_profile`]).
    pub fn new(spec: UplinkSpec) -> SharedUplink {
        spec.budget.validate();
        spec.policy.validate();
        let mut weight_levels = Vec::new();
        if let UplinkPolicy::WeightedMaxWeight { weights } = &spec.policy {
            for &w in weights {
                count_weight(&mut weight_levels, w);
            }
        }
        SharedUplink {
            spec,
            backlogs: Vec::new(),
            demands: Vec::new(),
            row_grants: Vec::new(),
            grants: Vec::new(),
            granted_ids: Vec::new(),
            weight_levels,
            scratch: AllocScratch::default(),
            fault: None,
            slots: 0,
            contended_slots: 0,
            budget_sum: 0.0,
            demand_sum: 0.0,
            granted_sum: 0.0,
            backlog_sum: 0.0,
            peak_backlog: 0.0,
            down_session_slot_sum: 0,
        }
    }

    /// A driver with a fault plane for a fleet of `sessions` sessions
    /// (see [`crate::fault`]). An empty plan attaches nothing at all, so
    /// it is bit-identical to [`SharedUplink::new`] by construction.
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid (see [`SharedUplink::new`]) or the
    /// plan fails [`crate::fault::FaultPlan::validate`] for this fleet.
    pub fn with_fault(
        spec: UplinkSpec,
        plan: &crate::fault::FaultPlan,
        sessions: usize,
    ) -> SharedUplink {
        let mut uplink = SharedUplink::new(spec);
        if !plan.is_empty() {
            uplink.fault = Some(crate::fault::FaultPlane::new(plan, sessions));
        }
        uplink
    }

    /// The uplink spec this driver enforces.
    pub fn spec(&self) -> &UplinkSpec {
        &self.spec
    }

    /// The grants of the most recent slot (stable-id order, one per
    /// [`SessionBatch::logical_len`] id; empty before the first step). An
    /// id without a row reads `+0.0`, as a dead row's grant does. The slot
    /// grants per row; this view is kept in O(rows) per slot: it grows
    /// with joins, takes the slot's row grants, and resets to `+0.0` the
    /// ids whose rows were compacted away since the last slot.
    pub fn last_grants(&self) -> &[f64] {
        &self.grants
    }

    /// Registers a mid-run session join (the churn plane calls this once
    /// per [`SessionBatch::spawn_at`]): a weighted policy appends the
    /// joiner's weight so its weight vector tracks the logical session
    /// count, and counts it in the degradation guard's weight groups.
    ///
    /// # Panics
    ///
    /// Panics when the policy is [`UplinkPolicy::WeightedMaxWeight`] and
    /// no weight is supplied, or the weight is not finite and positive
    /// (scenario validation enforces the pairing up front).
    pub fn register_join(&mut self, weight: Option<f64>) {
        if let UplinkPolicy::WeightedMaxWeight { weights } = &mut self.spec.policy {
            let w = weight.expect("a weighted uplink requires a weight for every joiner");
            assert!(
                w.is_finite() && w > 0.0,
                "joiner weight must be finite and positive, got {w}"
            );
            weights.push(w);
            count_weight(&mut self.weight_levels, w);
        }
    }

    /// Advances the batch one slot through the contention plane and
    /// returns the slot's aggregate stats.
    ///
    /// All aggregates are permutation-invariant sums, so the returned
    /// stats — like the per-session results — are bit-identical under
    /// session reordering. Every pass walks the batch's physical rows (see
    /// the module docs): the cost follows the rows, not the ids issued.
    pub fn step_slot<S: TelemetrySink + Send>(
        &mut self,
        batch: &mut SessionBatch<S>,
    ) -> UplinkSlotStats {
        let slot = batch.slot();
        let mut budget = self.spec.budget.budget_at(slot);
        if let Some(fault) = self.fault.as_mut() {
            budget = fault.effective_budget(slot, budget);
            fault.apply_crashes(slot, batch);
        }
        batch.backlog_rows(&mut self.backlogs);
        batch.demand_rows(&mut self.demands);
        let rows = batch.row_ids();
        let backlog = invariant_sum(self.backlogs.iter().copied(), &mut self.scratch.sums);
        // The offered demand — what the sessions polled, before the
        // degradation guard sheds anything. Contention is judged on it.
        let offered = invariant_sum(self.demands.iter().copied(), &mut self.scratch.sums);
        let mut demand = offered;
        let mut shed_sessions = 0;
        if let Some(fault) = self.fault.as_mut() {
            let uniform = [(1.0, rows.issued() as u64)];
            let (weights, levels) = match &self.spec.policy {
                UplinkPolicy::WeightedMaxWeight { weights } => {
                    (Some(weights.as_slice()), self.weight_levels.as_slice())
                }
                _ => (None, uniform.as_slice()),
            };
            shed_sessions = fault.shed_rows(backlog, &mut self.demands, levels, weights, rows);
            if shed_sessions > 0 {
                demand = invariant_sum(self.demands.iter().copied(), &mut self.scratch.sums);
            }
        }
        self.spec.policy.allocate_with(
            budget,
            rows,
            &self.backlogs,
            &self.demands,
            demand,
            &mut self.row_grants,
            &mut self.scratch,
        );
        let mut lost = 0.0;
        if let Some(fault) = self.fault.as_mut() {
            lost = fault.apply_loss_rows(&mut self.row_grants, rows);
        }
        self.record_grants(rows);
        batch.step_rows_granted(&self.row_grants);

        let granted = invariant_sum(self.row_grants.iter().copied(), &mut self.scratch.sums);
        let contended = offered > budget;
        if let Some(fault) = self.fault.as_mut() {
            fault.observe_contention(contended);
        }
        // Unconditional: churned runs count departed sessions with no
        // fault plane attached; fault-free fixed-N fleets report 0, so
        // pre-churn aggregates are bitwise unchanged.
        let down_sessions = batch.down_sessions();
        self.slots += 1;
        self.contended_slots += u64::from(contended);
        self.budget_sum += budget;
        self.demand_sum += offered;
        self.granted_sum += granted;
        self.backlog_sum += backlog;
        self.peak_backlog = self.peak_backlog.max(backlog);
        self.down_session_slot_sum += down_sessions;
        UplinkSlotStats {
            slot,
            budget,
            demand: offered,
            granted,
            backlog,
            contended,
            shed_sessions,
            lost,
            down_sessions,
        }
    }

    /// Writes the slot's row grants into the id-indexed
    /// [`SharedUplink::last_grants`]: the last slot's ids go back to `+0.0`
    /// first, so an id whose row has left (a departure compacted before
    /// its row ever saw a zero-demand slot) does not keep its last grant.
    fn record_grants(&mut self, rows: RowIds<'_>) {
        for &id in &self.granted_ids {
            self.grants[id] = 0.0;
        }
        self.grants.resize(rows.issued(), 0.0);
        self.granted_ids.clear();
        for (row, &grant) in self.row_grants.iter().enumerate() {
            let id = rows.id(row);
            self.grants[id] = grant;
            self.granted_ids.push(id);
        }
    }

    /// Drives the batch to its horizon.
    pub fn run<S: TelemetrySink + Send>(&mut self, batch: &mut SessionBatch<S>) {
        while !batch.is_done() {
            self.step_slot(batch);
        }
    }

    /// Finalizes the streaming aggregates.
    pub fn summary(&self) -> UplinkSummary {
        let mean = |sum: f64| {
            if self.slots == 0 {
                0.0
            } else {
                sum / self.slots as f64
            }
        };
        UplinkSummary {
            slots: self.slots,
            mean_budget: mean(self.budget_sum),
            contended_slots: self.contended_slots,
            mean_demand: mean(self.demand_sum),
            mean_granted: mean(self.granted_sum),
            mean_backlog: mean(self.backlog_sum),
            peak_backlog: self.peak_backlog,
            shed_slots: self.fault.as_ref().map_or(0, |f| f.shed_slots()),
            deferred_session_slots: self
                .fault
                .as_ref()
                .map_or(0, |f| f.deferred_session_slots()),
            lost_total: self.fault.as_ref().map_or(0.0, |f| f.lost_total()),
            outage_slots: self.fault.as_ref().map_or(0, |f| f.outage_slots()),
            down_session_slots: self.down_session_slot_sum,
        }
    }
}

/// A finished contended run: per-session summaries plus the uplink
/// aggregates.
///
/// Under churn, "per-session" means *per stable id* (scenario order, then
/// join order): a joiner's summary covers its residual horizon and a
/// departed session's summary is frozen at its departure — partial-horizon
/// means and percentiles, documented on
/// [`crate::telemetry::SessionSummary`]. The vectors are identical whether
/// or not the run compacted departed sessions.
#[derive(Debug, Clone)]
pub struct ContendedRun {
    /// The policy that ran.
    pub policy: UplinkPolicy,
    /// Per-session streaming summaries (stable-id order).
    pub summaries: Vec<SessionSummary>,
    /// The uplink's aggregate summary.
    pub uplink: UplinkSummary,
    /// Per-session slots missed while down or dead (stable-id order; all
    /// zero on fault-free, churn-free runs).
    pub downtime: Vec<u64>,
}

impl ContendedRun {
    /// Header matching [`ContendedRun::to_csv`]: the per-session summary
    /// columns, the session's downtime, then the run's aggregate uplink
    /// and fault columns (repeated per row so each row is
    /// self-describing).
    pub fn csv_header() -> String {
        format!(
            "{},downtime_slots,policy,uplink_mean_budget,uplink_contended_frac,\
             uplink_utilization,uplink_mean_backlog,uplink_peak_backlog,\
             uplink_shed_slots,uplink_deferred_session_slots,uplink_lost_total,\
             uplink_outage_slots,uplink_down_session_slots",
            SessionSummary::csv_header()
        )
    }

    /// One row per session: the session summary, the session's downtime,
    /// then the aggregate uplink and fault columns.
    pub fn to_csv(&self) -> String {
        let mut out = ContendedRun::csv_header();
        out.push('\n');
        // The aggregate columns are run-level constants.
        let aggregate = CsvRow::new()
            .field(self.policy.name())
            .fixed(self.uplink.mean_budget, 1)
            .fixed(self.uplink.contended_fraction(), 4)
            .fixed(self.uplink.utilization(), 4)
            .fixed(self.uplink.mean_backlog, 1)
            .fixed(self.uplink.peak_backlog, 1)
            .field(self.uplink.shed_slots)
            .field(self.uplink.deferred_session_slots)
            .fixed(self.uplink.lost_total, 1)
            .field(self.uplink.outage_slots)
            .field(self.uplink.down_session_slots)
            .finish();
        for (i, s) in self.summaries.iter().enumerate() {
            out.push_str(&s.csv_row(i));
            out.push(',');
            out.push_str(&CsvRow::new().field(self.downtime[i]).finish());
            out.push(',');
            out.push_str(&aggregate);
            out.push('\n');
        }
        out
    }
}

/// Runs a scenario through the contention plane with summary-only sinks:
/// the scenario's own [`Scenario::uplink`] spec, or
/// [`UplinkSpec::unconstrained`] when it declares none. The scenario's
/// fault plan and churn spec, when present, ride along (see
/// [`crate::fault`] and [`crate::churn`]) — an absent or empty churn spec
/// takes exactly the pre-churn code path.
pub fn run_contended(scenario: &Scenario) -> ContendedRun {
    let spec = scenario
        .uplink
        .clone()
        .unwrap_or_else(UplinkSpec::unconstrained);
    let policy = spec.policy.clone();
    let mut batch = SessionBatch::summary_only(scenario);
    let mut uplink = match &scenario.fault {
        Some(plan) => SharedUplink::with_fault(spec, plan, scenario.sessions.len()),
        None => SharedUplink::new(spec),
    };
    match scenario.churn.as_ref().filter(|c| !c.is_empty()) {
        Some(churn) => {
            let mut plane = crate::churn::ChurnPlane::new(churn, scenario);
            while !batch.is_done() {
                plane.step_summary(&mut batch, &mut uplink);
                uplink.step_slot(&mut batch);
            }
        }
        None => uplink.run(&mut batch),
    }
    let downtime = batch.downtime();
    ContendedRun {
        policy,
        summaries: batch.into_summaries(),
        uplink: uplink.summary(),
        downtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::scenario::ControllerSpec;
    use arvis_quality::DepthProfile;

    fn profile() -> DepthProfile {
        DepthProfile::from_parts(
            5,
            vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
            vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        )
    }

    #[test]
    fn slack_budget_grants_every_demand_verbatim() {
        for policy in [
            UplinkPolicy::Unconstrained,
            UplinkPolicy::ProportionalShare,
            UplinkPolicy::MaxWeightBacklog,
            UplinkPolicy::WeightedMaxWeight {
                weights: vec![1.0, 2.0, 3.0, 4.0],
            },
            UplinkPolicy::AlphaFair { alpha: 2.0 },
        ] {
            let demands = [100.0, 250.0, 0.0, 3.5];
            let backlogs = [10.0, 0.0, 99.0, 10.0];
            let mut grants = Vec::new();
            policy.allocate(1_000.0, &backlogs, &demands, &mut grants);
            assert_eq!(grants, demands.to_vec(), "{}", policy.name());
        }
    }

    #[test]
    fn proportional_share_scales_pro_rata() {
        let demands = [300.0, 100.0];
        let mut grants = Vec::new();
        UplinkPolicy::ProportionalShare.allocate(200.0, &[0.0, 0.0], &demands, &mut grants);
        assert!((grants[0] - 150.0).abs() < 1e-9);
        assert!((grants[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn max_weight_serves_largest_queues_first() {
        let demands = [100.0, 100.0, 100.0];
        let backlogs = [5.0, 500.0, 50.0];
        let mut grants = Vec::new();
        UplinkPolicy::MaxWeightBacklog.allocate(150.0, &backlogs, &demands, &mut grants);
        // Deepest queue (index 1) gets its full demand, the next (index 2)
        // the remainder, the shallowest nothing.
        assert_eq!(grants[1], 100.0);
        assert!((grants[2] - 50.0).abs() < 1e-9);
        assert_eq!(grants[0], 0.0);
    }

    #[test]
    fn max_weight_splits_ties_pro_rata() {
        let demands = [60.0, 180.0];
        let backlogs = [70.0, 70.0];
        let mut grants = Vec::new();
        UplinkPolicy::MaxWeightBacklog.allocate(120.0, &backlogs, &demands, &mut grants);
        // One group of equal backlogs: 120 split 1:3.
        assert!((grants[0] - 30.0).abs() < 1e-9);
        assert!((grants[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_max_weight_reorders_by_priority() {
        // Session 0 has the deeper queue, but session 1's 4x weight
        // outranks it: 300·4 > 1000·1.
        let demands = [100.0, 100.0];
        let backlogs = [1_000.0, 300.0];
        let weights = vec![1.0, 4.0];
        let mut grants = Vec::new();
        UplinkPolicy::WeightedMaxWeight { weights }.allocate(
            100.0,
            &backlogs,
            &demands,
            &mut grants,
        );
        assert_eq!(grants[1], 100.0, "gold tenant served first");
        assert_eq!(grants[0], 0.0);
    }

    #[test]
    fn weighted_max_weight_uniform_weights_match_unweighted_bitwise() {
        let demands = [130.0, 70.0, 240.0, 0.0, 55.5];
        let backlogs = [400.0, 400.0, 90.0, 10.0, 1_200.0];
        for budget in [0.0, 120.0, 333.3, 495.5, 1e4] {
            let mut plain = Vec::new();
            let mut weighted = Vec::new();
            UplinkPolicy::MaxWeightBacklog.allocate(budget, &backlogs, &demands, &mut plain);
            UplinkPolicy::WeightedMaxWeight {
                weights: vec![1.0; demands.len()],
            }
            .allocate(budget, &backlogs, &demands, &mut weighted);
            for (p, w) in plain.iter().zip(&weighted) {
                assert_eq!(p.to_bits(), w.to_bits(), "budget {budget}");
            }
        }
    }

    #[test]
    fn alpha_fair_one_matches_proportional_share_bitwise() {
        let demands = [300.0, 100.0, 0.0, 751.25, 40.0];
        let backlogs = [1.0, 2.0, 3.0, 4.0, 5.0]; // ignored by both
        for budget in [0.0, 150.0, 800.0, 1_191.24] {
            let mut ps = Vec::new();
            let mut af = Vec::new();
            UplinkPolicy::ProportionalShare.allocate(budget, &backlogs, &demands, &mut ps);
            UplinkPolicy::AlphaFair { alpha: 1.0 }.allocate(budget, &backlogs, &demands, &mut af);
            for (p, a) in ps.iter().zip(&af) {
                assert_eq!(p.to_bits(), a.to_bits(), "budget {budget}");
            }
        }
    }

    #[test]
    fn alpha_fair_infinity_is_max_min() {
        // Max-min: everyone gets the common level 40, except the 10-demand
        // session which is capped and frees budget for the rest.
        let demands = [100.0, 10.0, 100.0];
        let mut grants = Vec::new();
        UplinkPolicy::AlphaFair {
            alpha: f64::INFINITY,
        }
        .allocate(90.0, &[0.0; 3], &demands, &mut grants);
        assert_eq!(grants[1], 10.0, "small demand served in full");
        assert!((grants[0] - 40.0).abs() < 1e-9);
        assert!((grants[2] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_fair_interpolates_between_pro_rata_and_max_min() {
        let demands = [900.0, 100.0];
        let budget = 300.0;
        let grant0 = |alpha: f64| {
            let mut g = Vec::new();
            UplinkPolicy::AlphaFair { alpha }.allocate(budget, &[0.0, 0.0], &demands, &mut g);
            g[0]
        };
        let pf = grant0(1.0); // pro rata 9:1 → 270
        let mid = grant0(2.0); // shares √900:√100 = 3:1 → 225
        let mm = grant0(f64::INFINITY); // equal level 150 caps d=100 → 200
        assert!((pf - 270.0).abs() < 1e-9);
        assert!((mid - 225.0).abs() < 1e-9);
        assert!((mm - 200.0).abs() < 1e-9);
        assert!(mid < pf && mid > mm, "α=2 between PF {pf} and max-min {mm}");
    }

    #[test]
    fn zero_demand_under_zero_budget_is_fine() {
        let mut grants = Vec::new();
        for policy in [
            UplinkPolicy::ProportionalShare,
            UplinkPolicy::MaxWeightBacklog,
            UplinkPolicy::WeightedMaxWeight {
                weights: vec![1.0, 2.0],
            },
            UplinkPolicy::AlphaFair { alpha: 1.0 },
        ] {
            policy.allocate(0.0, &[1.0, 2.0], &[0.0, 0.0], &mut grants);
            assert_eq!(grants, vec![0.0, 0.0]);
            policy.allocate(0.0, &[1.0, 2.0], &[5.0, 0.0], &mut grants);
            assert_eq!(grants, vec![0.0, 0.0], "{}", policy.name());
        }
    }

    #[test]
    fn zero_budget_grants_are_exactly_positive_zero() {
        // The zero-budget slot path: grants must be +0.0 bit-for-bit (not
        // -0.0, not NaN) for every policy, including inside tie groups, for
        // a zero budget of either sign, called directly or per slot.
        let demands = [500.0, 0.0, 3.25, 1e9];
        let backlogs = [70.0, 70.0, 0.0, 1e12];
        let positive_zeros = |grants: &[f64]| grants.iter().all(|g| g.to_bits() == 0);
        let cfg = ExperimentConfig::new(profile(), 3_000.0, 5);
        for policy in [
            UplinkPolicy::ProportionalShare,
            UplinkPolicy::MaxWeightBacklog,
            UplinkPolicy::WeightedMaxWeight {
                weights: vec![2.0, 1.0, 1.0, 0.5],
            },
            UplinkPolicy::AlphaFair { alpha: 1.0 },
            UplinkPolicy::AlphaFair { alpha: 2.0 },
            UplinkPolicy::AlphaFair {
                alpha: f64::INFINITY,
            },
        ] {
            for budget in [0.0, -0.0] {
                let mut grants = Vec::new();
                policy.allocate(budget, &backlogs, &demands, &mut grants);
                assert!(
                    positive_zeros(&grants),
                    "{} budget {budget:?}: {grants:?}",
                    policy.name()
                );
            }
            let spec = UplinkSpec::with_profile(BudgetProfile::Constant(-0.0), policy.clone());
            let scenario = Scenario::replicated(&cfg, ControllerSpec::OnlyMax, 4).with_uplink(spec);
            let mut batch = crate::session::SessionBatch::summary_only(&scenario);
            let mut uplink = SharedUplink::new(scenario.uplink.clone().unwrap());
            while !batch.is_done() {
                let stats = uplink.step_slot(&mut batch);
                assert!(stats.contended);
                assert!(
                    positive_zeros(uplink.last_grants()) && stats.granted.to_bits() == 0,
                    "{} slot {}: {:?}",
                    policy.name(),
                    stats.slot,
                    uplink.last_grants()
                );
            }
        }
    }

    #[test]
    fn lost_is_positive_zero_on_loss_free_slots() {
        // The loss event draws every slot; where it takes nothing, `lost`
        // is +0.0 bitwise, as on a plane without loss events.
        let cfg = ExperimentConfig::new(profile(), 3_000.0, 200);
        let scenario = Scenario::replicated(&cfg, ControllerSpec::OnlyMax, 3)
            .with_uplink(UplinkSpec::new(5_000.0, UplinkPolicy::ProportionalShare));
        let plan = crate::fault::FaultPlan::new().with_event(crate::fault::FaultEvent::GrantLoss {
            session: 1,
            p: 0.2,
            seed: 3,
        });
        let mut batch = crate::session::SessionBatch::summary_only(&scenario);
        let mut uplink = SharedUplink::with_fault(scenario.uplink.clone().unwrap(), &plan, 3);
        let (mut lossy, mut loss_free) = (0, 0);
        while !batch.is_done() {
            let stats = uplink.step_slot(&mut batch);
            if stats.lost > 0.0 {
                lossy += 1;
            } else {
                assert_eq!(stats.lost.to_bits(), 0, "slot {}", stats.slot);
                loss_free += 1;
            }
        }
        assert!(
            lossy > 0 && loss_free > 0,
            "{lossy} lossy, {loss_free} loss-free"
        );
    }

    #[test]
    #[should_panic(expected = "demands must be finite")]
    fn infinite_demand_rejected() {
        let mut grants = Vec::new();
        UplinkPolicy::ProportionalShare.allocate(
            100.0,
            &[0.0, 0.0],
            &[f64::INFINITY, 5.0],
            &mut grants,
        );
    }

    #[test]
    #[should_panic(expected = "demands must be finite")]
    fn nan_demand_rejected() {
        let mut grants = Vec::new();
        UplinkPolicy::MaxWeightBacklog.allocate(100.0, &[0.0, 0.0], &[f64::NAN, 5.0], &mut grants);
    }

    #[test]
    #[should_panic(expected = "backlogs must be finite")]
    fn nan_backlog_rejected() {
        let mut grants = Vec::new();
        UplinkPolicy::MaxWeightBacklog.allocate(100.0, &[f64::NAN, 0.0], &[5.0, 5.0], &mut grants);
    }

    #[test]
    #[should_panic(expected = "demands must be finite")]
    fn negative_demand_rejected() {
        let mut grants = Vec::new();
        UplinkPolicy::ProportionalShare.allocate(100.0, &[0.0], &[-1.0], &mut grants);
    }

    #[test]
    #[should_panic(expected = "one max-weight weight per session")]
    fn weighted_max_weight_rejects_length_mismatch() {
        let mut grants = Vec::new();
        UplinkPolicy::WeightedMaxWeight { weights: vec![1.0] }.allocate(
            1.0,
            &[1.0, 2.0],
            &[5.0, 5.0],
            &mut grants,
        );
    }

    #[test]
    #[should_panic(expected = "bad max-weight weight")]
    fn weighted_max_weight_rejects_zero_weight() {
        let _ = UplinkSpec::new(
            10.0,
            UplinkPolicy::WeightedMaxWeight {
                weights: vec![1.0, 0.0],
            },
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be >= 1")]
    fn alpha_fair_rejects_sub_one_alpha() {
        let _ = UplinkSpec::new(10.0, UplinkPolicy::AlphaFair { alpha: 0.5 });
    }

    #[test]
    fn budget_profiles_evaluate_per_slot() {
        assert_eq!(BudgetProfile::Constant(5.0).budget_at(123), 5.0);

        let diurnal = BudgetProfile::Diurnal {
            mean: 100.0,
            amplitude: 50.0,
            period: 40,
            phase: 0.0,
        };
        diurnal.validate();
        assert!((diurnal.budget_at(0) - 100.0).abs() < 1e-9);
        assert!((diurnal.budget_at(10) - 150.0).abs() < 1e-9, "quarter peak");
        assert!((diurnal.budget_at(30) - 50.0).abs() < 1e-9, "trough");
        // One full period averages back to the mean.
        let mean: f64 = (0..40).map(|s| diurnal.budget_at(s)).sum::<f64>() / 40.0;
        assert!((mean - 100.0).abs() < 1e-6);

        let steps = BudgetProfile::PiecewiseSteps(vec![
            BudgetStep {
                start: 0,
                budget: 10.0,
            },
            BudgetStep {
                start: 5,
                budget: 2.0,
            },
            BudgetStep {
                start: 9,
                budget: 7.0,
            },
        ]);
        steps.validate();
        assert_eq!(steps.budget_at(0), 10.0);
        assert_eq!(steps.budget_at(4), 10.0);
        assert_eq!(steps.budget_at(5), 2.0);
        assert_eq!(steps.budget_at(8), 2.0);
        assert_eq!(steps.budget_at(9), 7.0);
        assert_eq!(steps.budget_at(1_000), 7.0);

        let trace = BudgetProfile::Trace(vec![3.0, 1.0, 4.0]);
        trace.validate();
        assert_eq!(trace.budget_at(0), 3.0);
        assert_eq!(trace.budget_at(2), 4.0);
        assert_eq!(trace.budget_at(99), 4.0, "past the end holds the last");
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn diurnal_rejects_negative_trough() {
        BudgetProfile::Diurnal {
            mean: 10.0,
            amplitude: 11.0,
            period: 5,
            phase: 0.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "need at least one traced budget")]
    fn empty_trace_rejected_at_spec_validation() {
        // Pinned behavior: an empty trace has no slot-0 budget to
        // evaluate, so it must be rejected when the spec is validated
        // (every construction path — UplinkSpec::with_profile,
        // SharedUplink::new, the scenario-file codec — runs validate()).
        let _ = UplinkSpec::with_profile(
            BudgetProfile::Trace(Vec::new()),
            UplinkPolicy::ProportionalShare,
        );
    }

    #[test]
    #[should_panic(expected = "start at slot 0")]
    fn piecewise_steps_must_cover_slot_zero() {
        BudgetProfile::PiecewiseSteps(vec![BudgetStep {
            start: 3,
            budget: 1.0,
        }])
        .validate();
    }

    #[test]
    fn driver_reports_contention_and_conserves_budget() {
        let cfg = ExperimentConfig::new(profile(), 3_000.0, 50);
        let scenario = Scenario::replicated(&cfg, ControllerSpec::OnlyMax, 4)
            .with_uplink(UplinkSpec::new(5_000.0, UplinkPolicy::ProportionalShare));
        let mut batch = crate::session::SessionBatch::summary_only(&scenario);
        let mut uplink = SharedUplink::new(scenario.uplink.clone().unwrap());
        let mut saw_contended = false;
        while !batch.is_done() {
            let stats = uplink.step_slot(&mut batch);
            // Demand is 4 × 3000 = 12000 > 5000 every slot.
            assert!(stats.granted <= 5_000.0 * (1.0 + 1e-12));
            assert_eq!(stats.budget, 5_000.0);
            saw_contended |= stats.contended;
        }
        assert!(saw_contended);
        let summary = uplink.summary();
        assert_eq!(summary.slots, 50);
        assert_eq!(summary.contended_slots, 50);
        assert_eq!(summary.mean_budget, 5_000.0);
        assert!(summary.utilization() > 0.999 && summary.utilization() < 1.001);
        assert!((summary.mean_demand - 12_000.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_normalizes_by_the_mean_budget() {
        // Alternating 8000/2000 budget against a constant 12000 demand:
        // every slot is contended and fully spent, so utilization must be
        // 1 — dividing by either constant would misreport it.
        let cfg = ExperimentConfig::new(profile(), 3_000.0, 40);
        let scenario = Scenario::replicated(&cfg, ControllerSpec::OnlyMax, 4).with_uplink(
            UplinkSpec::with_profile(
                BudgetProfile::Trace((0..40).map(|s| [8_000.0, 2_000.0][s % 2]).collect()),
                UplinkPolicy::ProportionalShare,
            ),
        );
        let run = run_contended(&scenario);
        assert_eq!(run.uplink.contended_slots, 40);
        assert!((run.uplink.mean_budget - 5_000.0).abs() < 1e-9);
        assert!(
            (run.uplink.utilization() - 1.0).abs() < 1e-9,
            "got {}",
            run.uplink.utilization()
        );
    }

    #[test]
    fn utilization_is_zero_when_any_slot_budget_is_infinite() {
        let cfg = ExperimentConfig::new(profile(), 2_000.0, 10);
        let scenario = Scenario::replicated(&cfg, ControllerSpec::OnlyMax, 2).with_uplink(
            UplinkSpec::with_profile(
                BudgetProfile::Trace(vec![1_000.0, f64::INFINITY, 1_000.0]),
                UplinkPolicy::ProportionalShare,
            ),
        );
        let run = run_contended(&scenario);
        assert!(run.uplink.mean_budget.is_infinite());
        assert_eq!(run.uplink.utilization(), 0.0, "documented degradation");
    }

    #[test]
    fn run_contended_without_uplink_is_unconstrained() {
        let cfg = ExperimentConfig::new(profile(), 2_000.0, 80);
        let scenario = Scenario::replicated(&cfg, ControllerSpec::Proposed { v: 1e7 }, 3);
        let run = run_contended(&scenario);
        assert_eq!(run.policy, UplinkPolicy::Unconstrained);
        assert_eq!(run.summaries.len(), 3);
        assert_eq!(run.uplink.slots, 80);
        assert_eq!(run.uplink.contended_slots, 0);
        assert_eq!(run.uplink.utilization(), 0.0, "infinite budget");
        let csv = run.to_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.lines().nth(1).unwrap().contains("unconstrained"));
        assert_eq!(
            csv.lines().next().unwrap().split(',').count(),
            csv.lines().nth(1).unwrap().split(',').count()
        );
    }

    #[test]
    #[should_panic(expected = "bad budget")]
    fn spec_rejects_negative_budget() {
        let _ = UplinkSpec::new(-1.0, UplinkPolicy::ProportionalShare);
    }
}
