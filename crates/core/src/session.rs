//! The session runtime: incremental per-slot stepping and SoA batches.
//!
//! The paper's closed loop (Algorithm 1) is inherently incremental — one
//! depth decision, one Lindley queue step per slot — but the legacy
//! [`crate::experiment::Experiment`] API only exposed run-to-completion.
//! This module turns the loop inside out:
//!
//! - a [`Session`] owns one device's state (stream, service process,
//!   controller, queue, FIFO latency tracker) and advances one slot per
//!   [`Session::step`], emitting a [`SlotOutcome`] and feeding a
//!   [`TelemetrySink`];
//! - a [`SessionBatch`] holds the state of N sessions in parallel arrays
//!   (struct-of-arrays: one `Vec` per component) and steps *all* sessions
//!   through one slot at a time, fanning fixed-size chunks of sessions out
//!   over `arvis_par` workers. Sessions are mutually independent, so batch
//!   results are bit-identical for every worker count, chunk size and
//!   session order — the same determinism contract as the octree and
//!   quality hot paths.
//!
//! Memory is O(sessions) with summary-only sinks: per-session state is the
//! queue scalars, the controller enum, the service process and the frames
//! currently awaiting service. Nothing scales with the horizon — except the
//! in-flight frame records of a *diverging* session, whose backlog (and
//! hence unserved-frame count) is unbounded by definition.

use arvis_lyapunov::adaptive::GrantRatioV;
use arvis_sim::latency::FifoLatencyTracker;
use arvis_sim::queue::WorkQueue;
use arvis_sim::service::{ConstantRate, DutyCycledRate, JitteredRate, ServiceProcess};
use serde::{Deserialize, Serialize};

use crate::controller::DepthController;
use crate::experiment::{ExperimentResult, ServiceSpec};
use crate::fault::CrashPolicy;
use crate::scenario::{BuiltController, ControllerSpec, Scenario, SessionSpec};
use crate::stream::StreamState;
use crate::telemetry::{FullTrace, SummarySink, TelemetrySink};
use crate::uplink::UplinkVAdaptSpec;

/// What one session observed during one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcome {
    /// The slot index τ.
    pub slot: u64,
    /// Chosen octree depth `d(τ)`.
    pub depth: u8,
    /// Visual quality `p_a(d(τ))` of the chosen depth.
    pub quality: f64,
    /// Injected workload `a(d(τ))`.
    pub arrival: f64,
    /// Offered service capacity `b(τ)`.
    pub service: f64,
    /// Work actually served.
    pub served: f64,
    /// Work dropped by a finite queue.
    pub dropped: f64,
    /// Backlog `Q(τ+1)` after the slot.
    pub backlog: f64,
}

/// Enum-dispatched service process state (the closed [`ServiceSpec`] set,
/// without the per-session `Box<dyn>` of the legacy runner).
#[derive(Debug, Clone)]
enum ServiceState {
    Constant(ConstantRate),
    Jittered(JitteredRate),
    DutyCycled(DutyCycledRate),
}

impl ServiceState {
    fn build(spec: ServiceSpec, seed: u64) -> ServiceState {
        match spec {
            ServiceSpec::Constant(rate) => ServiceState::Constant(ConstantRate::new(rate)),
            ServiceSpec::Jittered { rate, sigma } => {
                ServiceState::Jittered(JitteredRate::new(rate, sigma, seed))
            }
            ServiceSpec::DutyCycled {
                high,
                low,
                high_slots,
                low_slots,
            } => ServiceState::DutyCycled(DutyCycledRate::new(high, low, high_slots, low_slots)),
        }
    }

    fn capacity(&mut self, slot: u64) -> f64 {
        match self {
            ServiceState::Constant(s) => s.capacity(slot),
            ServiceState::Jittered(s) => s.capacity(slot),
            ServiceState::DutyCycled(s) => s.capacity(slot),
        }
    }
}

/// The one slot-advance kernel every execution path shares: Algorithm 1's
/// observe → decide → inject → serve sequence, in exactly the legacy
/// `Experiment::run` order, with telemetry routed through the sink.
///
/// The session's own service process supplies the slot's capacity. The
/// contention plane ([`crate::uplink`]) instead polls every session's
/// nominal capacity first ([`SessionBatch::fill_demands`]), admits the
/// aggregate against a shared budget, and completes the slot through
/// [`step_kernel_granted`] with the granted capacity. Both paths draw the
/// service process exactly once per slot, so an unconstrained grant is
/// bit-identical to this kernel.
fn step_kernel<C: DepthController + ?Sized, S: TelemetrySink>(
    slot: u64,
    stream: &mut StreamState,
    service: &mut ServiceState,
    controller: &mut C,
    queue: &mut WorkQueue,
    latency: &mut FifoLatencyTracker,
    sink: &mut S,
) -> SlotOutcome {
    let b = service.capacity(slot);
    step_kernel_granted(slot, stream, b, controller, queue, latency, sink)
}

/// [`step_kernel`] with the slot's service capacity supplied by the caller
/// (already drawn from the service process, possibly scaled down by a
/// shared-uplink admission policy).
fn step_kernel_granted<C: DepthController + ?Sized, S: TelemetrySink>(
    slot: u64,
    stream: &mut StreamState,
    b: f64,
    controller: &mut C,
    queue: &mut WorkQueue,
    latency: &mut FifoLatencyTracker,
    sink: &mut S,
) -> SlotOutcome {
    let profile = stream.profile_at(slot);
    // Observe Q(t) (paper Algorithm 1 line 4), decide (lines 6–11).
    let q = queue.backlog();
    let d = controller.select_depth(slot, q, profile);
    let a = profile.arrival(d);
    let p = profile.quality(d);
    let step = queue.step(a, b);
    // Track the admitted work as one frame (drops shrink the frame).
    latency.step_streaming(slot, a - step.dropped, step.served, &mut |f| {
        sink.on_frame(&f)
    });
    let outcome = SlotOutcome {
        slot,
        depth: d,
        quality: p,
        arrival: a,
        service: b,
        served: step.served,
        dropped: step.dropped,
        backlog: step.backlog,
    };
    sink.on_slot(&outcome);
    outcome
}

/// One AR session as an incremental state machine.
///
/// Unlike the run-to-completion [`crate::experiment::Experiment`], a
/// session can be stepped slot by slot, interleaved with other sessions,
/// inspected mid-run, and driven past its nominal horizon.
#[derive(Debug)]
pub struct Session {
    stream: StreamState,
    service: ServiceState,
    controller: BuiltController,
    queue: WorkQueue,
    latency: FifoLatencyTracker,
    warmup: u64,
    horizon: u64,
    slot: u64,
}

impl Session {
    /// Builds a session from its spec with a `slots` horizon (the spec is
    /// consumed; clone it to build several sessions from one spec).
    pub fn new(spec: SessionSpec, slots: u64) -> Session {
        Session {
            service: ServiceState::build(spec.service, spec.seed),
            controller: spec.controller.build(),
            latency: spec.latency_tracker(),
            stream: StreamState::new(spec.stream),
            queue: match spec.queue_capacity {
                Some(c) => WorkQueue::with_capacity(c),
                None => WorkQueue::new(),
            },
            warmup: spec.warmup,
            horizon: slots,
            slot: 0,
        }
    }

    /// The next slot to simulate (number of slots already taken).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The nominal horizon in slots ([`Session::run`]'s stopping point;
    /// [`Session::step`] may continue past it).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Warm-up slots excluded from time averages.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// `true` once the nominal horizon has been reached.
    pub fn is_done(&self) -> bool {
        self.slot >= self.horizon
    }

    /// The session's work queue (live backlog and conservation counters).
    pub fn queue(&self) -> &WorkQueue {
        &self.queue
    }

    /// The machine-readable name of the session's own controller.
    pub fn controller_name(&self) -> &'static str {
        self.controller.name()
    }

    /// Advances one slot under the session's own controller.
    pub fn step<S: TelemetrySink>(&mut self, sink: &mut S) -> SlotOutcome {
        let slot = self.slot;
        self.slot += 1;
        let Session {
            stream,
            service,
            controller,
            queue,
            latency,
            ..
        } = self;
        step_kernel(slot, stream, service, controller, queue, latency, sink)
    }

    /// Advances one slot with an externally owned controller (the open
    /// [`DepthController`] escape hatch; the session's own controller is
    /// bypassed and left untouched).
    pub fn step_with<C: DepthController + ?Sized, S: TelemetrySink>(
        &mut self,
        controller: &mut C,
        sink: &mut S,
    ) -> SlotOutcome {
        let slot = self.slot;
        self.slot += 1;
        let Session {
            stream,
            service,
            queue,
            latency,
            ..
        } = self;
        step_kernel(slot, stream, service, controller, queue, latency, sink)
    }

    /// Steps until the horizon is reached.
    pub fn run<S: TelemetrySink>(&mut self, sink: &mut S) {
        while !self.is_done() {
            self.step(sink);
        }
    }

    /// Convenience: runs to the horizon under a [`FullTrace`] and
    /// finalizes the legacy [`ExperimentResult`].
    pub fn run_to_result(mut self) -> ExperimentResult {
        let mut trace = FullTrace::new();
        self.run(&mut trace);
        trace.into_result(self.controller_name(), self.warmup, &self.queue)
    }
}

/// One session's liveness on the fault plane (see [`crate::fault`]).
///
/// Every session starts [`Liveness::Live`]; only
/// [`SessionBatch::crash_session`] moves it — the batch never crashes a
/// session on its own, so fault-free runs never leave `Live` and pay no
/// cost for the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// The session is running normally.
    Live,
    /// The session is down and will restart at slot `until`.
    Down {
        /// The first slot the restarted session simulates again.
        until: u64,
        /// What the restart rebuilds (see [`CrashPolicy`]).
        policy: CrashPolicy,
    },
    /// The session crashed permanently and never comes back.
    Dead,
}

impl Liveness {
    /// `true` when the session is running this slot.
    pub fn is_live(&self) -> bool {
        matches!(self, Liveness::Live)
    }
}

/// The spec fragments a restart needs to rebuild per-session state
/// (everything but the stream, which stays in the batch's SoA arrays).
#[derive(Debug, Clone)]
struct RebuildInfo {
    controller: ControllerSpec,
    service: ServiceSpec,
    seed: u64,
    queue_capacity: Option<f64>,
    frame_cap: Option<usize>,
    uplink_v_adapt: Option<UplinkVAdaptSpec>,
}

impl RebuildInfo {
    fn of(spec: &SessionSpec) -> RebuildInfo {
        RebuildInfo {
            controller: spec.controller.clone(),
            service: spec.service,
            seed: spec.seed,
            queue_capacity: spec.queue_capacity,
            frame_cap: spec.frame_cap,
            uplink_v_adapt: spec.uplink_v_adapt,
        }
    }

    fn queue(&self) -> WorkQueue {
        match self.queue_capacity {
            Some(c) => WorkQueue::with_capacity(c),
            None => WorkQueue::new(),
        }
    }

    fn latency(&self) -> FifoLatencyTracker {
        match self.frame_cap {
            Some(cap) => FifoLatencyTracker::with_max_in_flight(cap),
            None => FifoLatencyTracker::new(),
        }
    }

    fn adapter(&self) -> Option<GrantRatioV> {
        self.uplink_v_adapt.map(|adapt| {
            let base_v = self
                .controller
                .proposed_v()
                .expect("validated at construction: adapt requires Proposed");
            adapt.build(base_v)
        })
    }
}

/// Default number of sessions stepped per work chunk. Fixed (never derived
/// from the worker count) so decompositions — and thus any chunk-ordered
/// reductions — are identical in serial and parallel execution.
pub const DEFAULT_SESSIONS_PER_CHUNK: usize = 64;

/// Order-preserving in-place filter by a positional keep mask (the SoA
/// compaction primitive — every parallel array drops the same rows).
fn compact_vec<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut p = 0;
    v.retain(|_| {
        let k = keep[p];
        p += 1;
        k
    });
}

/// One fan-out work unit: equal-index chunks of every per-session array,
/// including each session's liveness, local-clock offset and downtime
/// counter (the fault plane's state; all-`Live`, all-zero when no fault).
type ChunkTask<'a, S> = (
    &'a mut [StreamState],
    &'a mut [BuiltController],
    &'a mut [ServiceState],
    &'a mut [WorkQueue],
    &'a mut [FifoLatencyTracker],
    &'a mut [S],
    &'a [Liveness],
    &'a [u64],
    &'a mut [u64],
);

/// A [`SessionBatch::step_slot_granted`] work unit: like [`ChunkTask`] but
/// with the slot's service capacities already drawn (demands) and admitted
/// (grants), plus the per-session uplink-aware `V` adapters the
/// grant/demand feedback drives.
type GrantedChunkTask<'a, S> = (
    &'a mut [StreamState],
    &'a mut [BuiltController],
    &'a [f64],
    &'a [f64],
    &'a mut [Option<GrantRatioV>],
    &'a mut [WorkQueue],
    &'a mut [FifoLatencyTracker],
    &'a mut [S],
    &'a [Liveness],
    &'a [u64],
    &'a mut [u64],
);

/// A session physically evicted from the SoA arrays by
/// [`SessionBatch::compact`]: its finished telemetry keeps reporting under
/// its stable id, and its downtime keeps accruing arithmetically
/// (`downtime_at_retire + slots_since_retire`) exactly as the dead row
/// would have counted.
#[derive(Debug)]
struct Retired<S> {
    /// The session's stable id ([`SessionBatch::spawn_at`] order).
    id: u64,
    /// The sink, frozen at the crash (dead rows never feed their sink).
    sink: S,
    /// Downtime accrued while the dead row was still physically present.
    downtime: u64,
    /// The batch slot the row was evicted at.
    retire_slot: u64,
}

/// The stable ids behind one slot's per-row vectors: entry `p` of a
/// backlog, demand or grant vector belongs to session `id(p)`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowIds<'a> {
    /// Entry `i` is session `i` of `n`: the id-indexed vectors the public
    /// calls take.
    Identity(usize),
    /// A batch's physical rows: entry `p` is session `ids[p]`, one of
    /// `issued` ids. Ids ascend; an id whose row was compacted away has
    /// no entry.
    Batch {
        /// Row → stable id.
        ids: &'a [u64],
        /// Every id ever issued ([`SessionBatch::logical_len`]).
        issued: usize,
    },
}

impl RowIds<'_> {
    /// The number of ids ever issued: the length of an id-indexed vector.
    pub(crate) fn issued(self) -> usize {
        match self {
            RowIds::Identity(n) => n,
            RowIds::Batch { issued, .. } => issued,
        }
    }

    /// The stable id of entry `row`.
    pub(crate) fn id(self, row: usize) -> usize {
        match self {
            RowIds::Identity(_) => row,
            RowIds::Batch { ids, .. } => ids[row] as usize,
        }
    }

    /// The entry of session `id`, or `None` when it has no row (binary
    /// search: ids ascend).
    pub(crate) fn row(self, id: usize) -> Option<usize> {
        match self {
            RowIds::Identity(_) => Some(id),
            RowIds::Batch { ids, .. } => ids.binary_search(&(id as u64)).ok(),
        }
    }
}

/// N sessions stepped in lock-step, state stored as struct-of-arrays.
///
/// One `Vec` per component (streams, controllers, service processes,
/// queues, latency trackers, sinks) keeps each component type contiguous;
/// a slot step zips equal-length chunks of all six arrays and fans the
/// chunks out over [`arvis_par`] workers. Sessions never interact, so the
/// batch is deterministic regardless of worker count, chunk size, and
/// session order.
///
/// # Stable ids and the logical view
///
/// Every session has a stable id — its creation index: scenario order for
/// the initial fleet, then [`SessionBatch::spawn_at`] order. Without churn,
/// ids and physical row indices coincide and everything below reduces to
/// the fixed-N behavior bit-for-bit. With churn, [`SessionBatch::compact`]
/// may physically evict [`Liveness::Dead`] rows. Rows keep ascending ids,
/// so a row is found from its id by binary search.
///
/// The public uplink-facing surface is *id-indexed* ("logical"):
/// [`SessionBatch::fill_backlogs`] / [`SessionBatch::fill_demands`]
/// scatter by id into vectors of [`SessionBatch::logical_len`] entries
/// (retired ids contribute the same `0.0` a dead row would),
/// [`SessionBatch::step_slot_granted`] gathers grants by id, and
/// [`SessionBatch::downtime`] / [`SessionBatch::into_summaries`] assemble
/// per-id outputs from live and retired sessions alike. Compaction is
/// therefore bitwise invisible to every admission policy, aggregate, and
/// telemetry row — the churn plane's differential suite
/// (`tests/session_churn.rs`) pins this.
///
/// The contended slot ([`crate::uplink::SharedUplink::step_slot`]) never
/// builds the logical view: it polls, admits and grants per physical row,
/// so its cost follows the rows (live, down and not-yet-compacted
/// sessions), not every id ever issued. The id-indexed calls above are
/// thin scatter/gather adapters over that same row code. An id without a
/// row backlogs, demands and is granted exactly `+0.0`, which every sum
/// skips and every policy grants back, so both views give the same bits.
#[derive(Debug)]
pub struct SessionBatch<S: TelemetrySink> {
    streams: Vec<StreamState>,
    controllers: Vec<BuiltController>,
    services: Vec<ServiceState>,
    queues: Vec<WorkQueue>,
    latencies: Vec<FifoLatencyTracker>,
    warmups: Vec<u64>,
    sinks: Vec<S>,
    /// Per-session uplink-aware `V` adapters (`None` for sessions without
    /// the knob). Driven only by the granted step.
    adapters: Vec<Option<GrantRatioV>>,
    /// The demands drawn by the most recent
    /// [`SessionBatch::fill_demands`] — kept so the granted step can
    /// compute each session's grant/demand ratio.
    last_demands: Vec<f64>,
    /// The spec fragments each session's restart rebuilds from.
    rebuild: Vec<RebuildInfo>,
    /// Per-session liveness (all [`Liveness::Live`] without faults).
    liveness: Vec<Liveness>,
    /// Per-session local-clock offsets: a cold restart at batch slot `r`
    /// sets session `i`'s offset to `r`, and every kernel thereafter runs
    /// on `slot - local_offsets[i]` — which makes a cold-restarted
    /// session's trajectory *identical by construction* to a fresh session
    /// with the residual horizon. All-zero without faults, where
    /// `slot - 0` reproduces the fault-free arithmetic exactly.
    local_offsets: Vec<u64>,
    /// Per-session slots missed while down (includes permanent death).
    downtime: Vec<u64>,
    /// Physical row → stable session id (creation order). Identity until
    /// [`SessionBatch::compact`] evicts a dead row.
    ids: Vec<u64>,
    /// The next stable id to assign (== the logical session count).
    next_id: u64,
    /// Sessions evicted by [`SessionBatch::compact`], still reporting
    /// under their stable ids.
    retired: Vec<Retired<S>>,
    /// Physical [`Liveness::Dead`] rows not yet evicted (compaction's
    /// trigger input).
    dead_rows: usize,
    slot: u64,
    horizon: u64,
    chunk: usize,
    /// `true` between [`SessionBatch::fill_demands`] and the matching
    /// [`SessionBatch::step_slot_granted`] — the service processes have
    /// already been drawn for the pending slot.
    demands_drawn: bool,
}

impl<S: TelemetrySink + Send> SessionBatch<S> {
    /// Builds a batch from a scenario, constructing one sink per session
    /// via `make_sink(index, spec)`.
    ///
    /// # Panics
    ///
    /// Panics when a session declares `uplink_v_adapt` without a
    /// [`crate::scenario::ControllerSpec::Proposed`] controller — the
    /// adaptation scales that controller's `V` and has nothing to act on
    /// otherwise.
    pub fn new(
        scenario: &Scenario,
        mut make_sink: impl FnMut(usize, &SessionSpec) -> S,
    ) -> SessionBatch<S> {
        let n = scenario.sessions.len();
        let mut batch = SessionBatch {
            streams: Vec::with_capacity(n),
            controllers: Vec::with_capacity(n),
            services: Vec::with_capacity(n),
            queues: Vec::with_capacity(n),
            latencies: Vec::with_capacity(n),
            warmups: Vec::with_capacity(n),
            sinks: Vec::with_capacity(n),
            adapters: Vec::with_capacity(n),
            last_demands: Vec::new(),
            rebuild: Vec::with_capacity(n),
            liveness: vec![Liveness::Live; n],
            local_offsets: vec![0; n],
            downtime: vec![0; n],
            ids: (0..n as u64).collect(),
            next_id: n as u64,
            retired: Vec::new(),
            dead_rows: 0,
            slot: 0,
            horizon: scenario.slots,
            chunk: DEFAULT_SESSIONS_PER_CHUNK,
            demands_drawn: false,
        };
        for (i, spec) in scenario.sessions.iter().enumerate() {
            batch.streams.push(StreamState::new(spec.stream.clone()));
            batch.controllers.push(spec.controller.build());
            batch
                .services
                .push(ServiceState::build(spec.service, spec.seed));
            batch.queues.push(match spec.queue_capacity {
                Some(c) => WorkQueue::with_capacity(c),
                None => WorkQueue::new(),
            });
            batch.latencies.push(spec.latency_tracker());
            batch.warmups.push(spec.warmup);
            batch.sinks.push(make_sink(i, spec));
            batch.adapters.push(spec.uplink_v_adapt.map(|adapt| {
                let base_v = spec.controller.proposed_v().unwrap_or_else(|| {
                    panic!("session {i}: uplink_v_adapt requires a Proposed controller")
                });
                adapt.build(base_v)
            }));
            batch.rebuild.push(RebuildInfo::of(spec));
        }
        batch
    }

    /// Overrides the number of sessions per work chunk (results are
    /// invariant to this; it only tunes fan-out granularity).
    ///
    /// # Panics
    ///
    /// Panics when `chunk == 0`.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk: usize) -> SessionBatch<S> {
        assert!(chunk > 0, "chunk size must be positive");
        self.chunk = chunk;
        self
    }

    /// Number of physical session rows in the batch (excludes sessions
    /// evicted by [`SessionBatch::compact`]; see
    /// [`SessionBatch::logical_len`]).
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Number of sessions ever created (initial fleet + every
    /// [`SessionBatch::spawn_at`]) — the length of every id-indexed
    /// ("logical") vector: backlogs, demands, grants, downtime, summaries.
    /// Equals [`SessionBatch::len`] until compaction evicts a row.
    pub fn logical_len(&self) -> usize {
        self.next_id as usize
    }

    /// Physical [`Liveness::Dead`] rows not yet evicted by
    /// [`SessionBatch::compact`].
    pub fn dead_rows(&self) -> usize {
        self.dead_rows
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// The next slot to simulate.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The scenario horizon in slots.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// `true` once every session has reached the horizon.
    pub fn is_done(&self) -> bool {
        self.slot >= self.horizon
    }

    /// Session `i`'s work queue.
    pub fn queue(&self, i: usize) -> &WorkQueue {
        &self.queues[i]
    }

    /// Session `i`'s controller name.
    pub fn controller_name(&self, i: usize) -> &'static str {
        self.controllers[i].name()
    }

    /// The per-session sinks (physical row order; sinks of compacted
    /// sessions live in the retired list and are reachable only through
    /// [`SessionBatch::into_summaries`]).
    pub fn sinks(&self) -> &[S] {
        &self.sinks
    }

    /// Consumes the batch, returning the physical rows' sinks (retired
    /// sessions' sinks are dropped — use
    /// [`SessionBatch::into_summaries`] on churned summary batches).
    pub fn into_sinks(self) -> Vec<S> {
        self.sinks
    }

    /// Sum of all live backlogs, reduced in fixed chunk order (the
    /// deterministic reduction pattern: per-chunk partial sums in parallel,
    /// serial in-order combine).
    pub fn total_backlog(&self) -> f64 {
        arvis_par::map_chunks(&self.queues, self.chunk, |_, c| {
            // arvis-lint: allow(float-reduction-order, "within-chunk serial sum; map_chunks combines the per-chunk partials in fixed order — this IS the deterministic reducer")
            c.iter().map(WorkQueue::backlog).sum::<f64>()
        })
        .into_iter()
        .sum()
    }

    /// The batch's physical rows and the stable id of each.
    pub(crate) fn row_ids(&self) -> RowIds<'_> {
        RowIds::Batch {
            ids: &self.ids,
            issued: self.logical_len(),
        }
    }

    /// Writes per-row values into the id-indexed (logical) view: `out` is
    /// resized to [`SessionBatch::logical_len`], and ids without a row
    /// read `+0.0`.
    fn scatter(&self, rows: impl Iterator<Item = f64>, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.logical_len(), 0.0);
        for (&id, value) in self.ids.iter().zip(rows) {
            out[id as usize] = value;
        }
    }

    /// Writes every session's live backlog `Q_i(τ)` into `out` (stable-id
    /// order, resized to [`SessionBatch::logical_len`]) — the per-session
    /// observation a cross-session admission policy acts on. Retired ids
    /// report `0.0`, exactly what their dead row would (a permanent crash
    /// rebuilds an empty queue), so compaction cannot change the vector.
    /// This scatters the per-row backlogs the contended slot reads.
    pub fn fill_backlogs(&self, out: &mut Vec<f64>) {
        self.scatter(self.queues.iter().map(WorkQueue::backlog), out);
    }

    /// Writes every physical row's live backlog into `out` (row order; see
    /// [`SessionBatch::row_ids`]).
    pub(crate) fn backlog_rows(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.queues.iter().map(WorkQueue::backlog));
    }

    /// Draws every session's nominal service capacity for the *next* slot
    /// into `out` (stable-id order, resized to
    /// [`SessionBatch::logical_len`]; retired ids demand `0.0` like any
    /// dead row), advancing each service process by exactly one slot. This
    /// scatters the per-row draws the contended slot reads.
    ///
    /// This is phase one of a contended slot: poll demands, admit them
    /// against a shared budget, then complete the slot with
    /// [`SessionBatch::step_slot_granted`]. Every service process is drawn
    /// exactly once per slot — the same draws, in the same per-session
    /// order, as the one-phase [`SessionBatch::step_slot`] — so granting
    /// each session its full demand reproduces the uncoupled batch
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics when called twice for the same slot (demands already drawn)
    /// or when the batch is already past its horizon.
    pub fn fill_demands(&mut self, out: &mut Vec<f64>) {
        self.draw_demands();
        self.scatter(self.last_demands.iter().copied(), out);
    }

    /// [`SessionBatch::fill_demands`] per physical row: the slot's demands
    /// in row order, with the same draws and panics.
    pub(crate) fn demand_rows(&mut self, out: &mut Vec<f64>) {
        self.draw_demands();
        out.clear();
        out.extend_from_slice(&self.last_demands);
    }

    /// Draws the slot's demands into `last_demands`, one per physical row.
    fn draw_demands(&mut self) {
        assert!(
            !self.demands_drawn,
            "fill_demands called twice for slot {}",
            self.slot
        );
        assert!(
            self.slot < self.horizon,
            "fill_demands past the horizon ({})",
            self.horizon
        );
        self.demands_drawn = true;
        let slot = self.slot;
        // Draw per physical row (the service processes live there), keeping
        // the draws so the granted step can feed each session's
        // grant/demand ratio to its uplink-aware V adapter.
        self.last_demands.clear();
        self.last_demands.resize(self.services.len(), 0.0);
        let c = self.chunk;
        #[allow(clippy::type_complexity)]
        let tasks: Vec<(&[Liveness], &[u64], &mut [ServiceState], &mut [f64])> = self
            .liveness
            .chunks(c)
            .zip(self.local_offsets.chunks(c))
            .zip(self.services.chunks_mut(c))
            .zip(self.last_demands.chunks_mut(c))
            .map(|(((li, of), sv), dm)| (li, of, sv, dm))
            .collect();
        arvis_par::for_each_task(tasks, |_, (li, of, services, demands)| {
            for (i, (service, demand)) in services.iter_mut().zip(demands.iter_mut()).enumerate() {
                // A down or dead session demands nothing and — crucially —
                // draws nothing: its service process is not advanced, so a
                // cold restart replays a fresh process from its own seed.
                *demand = if li[i].is_live() {
                    service.capacity(slot - of[i])
                } else {
                    0.0
                };
            }
        });
    }

    /// Phase two of a contended slot: advances every session by one slot
    /// with the *granted* service capacities (stable-id order, one entry
    /// per [`SessionBatch::logical_len`] id), instead of drawing the
    /// service processes (already drawn by [`SessionBatch::fill_demands`]).
    /// Grants addressed to retired ids are ignored — they are `0.0` for
    /// any work-conserving policy, since a retired id demands nothing.
    /// This gathers the grants onto the physical rows and steps them as
    /// the contended slot does.
    ///
    /// # Panics
    ///
    /// Panics when `granted.len() != self.logical_len()` or when
    /// [`SessionBatch::fill_demands`] was not called for this slot (the
    /// service processes would otherwise skip a draw and desynchronize
    /// from the uncoupled batch).
    pub fn step_slot_granted(&mut self, granted: &[f64]) {
        assert_eq!(
            granted.len(),
            self.logical_len(),
            "granted-service vector length must match the logical session count"
        );
        let rows: Vec<f64> = self.ids.iter().map(|&id| granted[id as usize]).collect();
        self.step_rows_granted(&rows);
    }

    /// [`SessionBatch::step_slot_granted`] with one grant per physical row
    /// (row order; see [`SessionBatch::row_ids`]), with the same panics.
    pub(crate) fn step_rows_granted(&mut self, granted: &[f64]) {
        assert_eq!(granted.len(), self.len(), "one grant per physical row");
        assert!(
            self.demands_drawn,
            "step_slot_granted without fill_demands for slot {}",
            self.slot
        );
        self.demands_drawn = false;
        let slot = self.slot;
        self.slot += 1;
        let c = self.chunk;
        let mut tasks: Vec<GrantedChunkTask<'_, S>> = Vec::with_capacity(granted.len().div_ceil(c));
        let mut streams = self.streams.chunks_mut(c);
        let mut controllers = self.controllers.chunks_mut(c);
        let mut grants = granted.chunks(c);
        let mut demands = self.last_demands.chunks(c);
        let mut adapters = self.adapters.chunks_mut(c);
        let mut queues = self.queues.chunks_mut(c);
        let mut latencies = self.latencies.chunks_mut(c);
        let mut sinks = self.sinks.chunks_mut(c);
        let mut liveness = self.liveness.chunks(c);
        let mut offsets = self.local_offsets.chunks(c);
        let mut downtime = self.downtime.chunks_mut(c);
        #[allow(clippy::type_complexity)]
        while let (
            Some(st),
            Some(ct),
            Some(gr),
            Some(dm),
            Some(ad),
            Some(qu),
            Some(la),
            Some(si),
            Some(li),
            Some(of),
            Some(dt),
        ) = (
            streams.next(),
            controllers.next(),
            grants.next(),
            demands.next(),
            adapters.next(),
            queues.next(),
            latencies.next(),
            sinks.next(),
            liveness.next(),
            offsets.next(),
            downtime.next(),
        ) {
            tasks.push((st, ct, gr, dm, ad, qu, la, si, li, of, dt));
        }
        arvis_par::for_each_task(tasks, |_, (st, ct, gr, dm, ad, qu, la, si, li, of, dt)| {
            for i in 0..st.len() {
                if !li[i].is_live() {
                    dt[i] += 1;
                    continue;
                }
                if let Some(adapter) = ad[i].as_mut() {
                    // The slot's admission outcome: what fraction of the
                    // polled demand the uplink granted (1 when idle).
                    let ratio = if dm[i] > 0.0 { gr[i] / dm[i] } else { 1.0 };
                    ct[i].set_v(adapter.observe(ratio));
                }
                step_kernel_granted(
                    slot - of[i],
                    &mut st[i],
                    gr[i],
                    &mut ct[i],
                    &mut qu[i],
                    &mut la[i],
                    &mut si[i],
                );
            }
        });
    }

    /// Crashes the session with stable id `i` under `policy`, effective
    /// immediately: the session misses the *next* simulated slot and every
    /// slot before `restart_at` (ignored — pass any value — for
    /// [`CrashPolicy::Permanent`]). Ids equal batch indices until
    /// compaction evicts a row, so pre-churn callers are unaffected.
    ///
    /// [`CrashPolicy::ColdRestart`] and [`CrashPolicy::Permanent`] discard
    /// the queue and in-flight frames at the crash (the device lost its
    /// state); [`CrashPolicy::WarmRestart`] preserves them. The restart
    /// itself happens in [`SessionBatch::apply_restarts`] — the fault
    /// plane ([`crate::fault::FaultPlane::apply_crashes`]) drives both on
    /// the contended path; the uncoupled [`SessionBatch::step_slot`] /
    /// [`SessionBatch::run`] paths skip non-live sessions but never
    /// restart them.
    ///
    /// # Panics
    ///
    /// Panics when the session is already down or dead (the scenario
    /// validation in [`crate::fault::FaultPlan::validate`] rejects
    /// overlapping crash schedules), or when the id was retired by
    /// compaction (scenario validation forbids churn lifetimes combined
    /// with `session_crash` events, so fault plans never hit this).
    pub fn crash_session(&mut self, i: usize, policy: CrashPolicy, restart_at: u64) {
        let p = self.row_ids().row(i).unwrap_or_else(|| {
            panic!("session {i} is no longer in the batch (departed and compacted)")
        });
        assert!(
            self.liveness[p].is_live(),
            "session {i} is already down or dead"
        );
        match policy {
            CrashPolicy::Permanent => {
                self.liveness[p] = Liveness::Dead;
                self.dead_rows += 1;
                self.queues[p] = self.rebuild[p].queue();
                self.latencies[p] = self.rebuild[p].latency();
            }
            CrashPolicy::ColdRestart => {
                self.liveness[p] = Liveness::Down {
                    until: restart_at,
                    policy,
                };
                self.queues[p] = self.rebuild[p].queue();
                self.latencies[p] = self.rebuild[p].latency();
            }
            CrashPolicy::WarmRestart => {
                self.liveness[p] = Liveness::Down {
                    until: restart_at,
                    policy,
                };
            }
        }
    }

    /// Restarts every session whose downtime has elapsed (`until <= slot`,
    /// where `slot` is the slot about to be simulated).
    ///
    /// A [`CrashPolicy::ColdRestart`] rebuilds the controller, service
    /// process, queue, latency tracker and `V` adapter from the spec and
    /// restarts the session's local clock at `slot` — from here on the
    /// session is *identical by construction* to a fresh session with the
    /// residual horizon. A [`CrashPolicy::WarmRestart`] re-warms only the
    /// controller and adapter, preserving the queue, in-flight frames,
    /// service process and local clock.
    pub fn apply_restarts(&mut self, slot: u64) {
        for i in 0..self.liveness.len() {
            let Liveness::Down { until, policy } = self.liveness[i] else {
                continue;
            };
            if until > slot {
                continue;
            }
            match policy {
                CrashPolicy::ColdRestart => {
                    self.controllers[i] = self.rebuild[i].controller.build();
                    self.services[i] =
                        ServiceState::build(self.rebuild[i].service, self.rebuild[i].seed);
                    self.queues[i] = self.rebuild[i].queue();
                    self.latencies[i] = self.rebuild[i].latency();
                    self.adapters[i] = self.rebuild[i].adapter();
                    self.local_offsets[i] = slot;
                }
                CrashPolicy::WarmRestart => {
                    self.controllers[i] = self.rebuild[i].controller.build();
                    self.adapters[i] = self.rebuild[i].adapter();
                }
                CrashPolicy::Permanent => unreachable!("permanent crashes are Dead, not Down"),
            }
            self.liveness[i] = Liveness::Live;
        }
    }

    /// Appends one freshly built session to every SoA array, live
    /// immediately: its first simulated slot is the batch's current slot,
    /// and its local clock starts there — by the cold-restart construction
    /// ([`SessionBatch::apply_restarts`]) the joiner's trajectory is
    /// *identical by construction* to a fresh session with the residual
    /// horizon. The new session gets the next stable id (`logical_len`
    /// grows by one). This is the churn plane's join primitive
    /// ([`crate::churn::ChurnPlane`]).
    ///
    /// # Panics
    ///
    /// Panics mid-slot (between [`SessionBatch::fill_demands`] and
    /// [`SessionBatch::step_slot_granted`]) — the slot's logical vectors
    /// are already sized — and when the spec declares `uplink_v_adapt`
    /// without a [`crate::scenario::ControllerSpec::Proposed`] controller.
    pub fn spawn_at(&mut self, spec: &SessionSpec, sink: S) {
        assert!(
            !self.demands_drawn,
            "spawn_at mid-slot: slot {} has polled demands",
            self.slot
        );
        let id = self.next_id;
        self.next_id += 1;
        self.streams.push(StreamState::new(spec.stream.clone()));
        self.controllers.push(spec.controller.build());
        self.services
            .push(ServiceState::build(spec.service, spec.seed));
        self.queues.push(match spec.queue_capacity {
            Some(c) => WorkQueue::with_capacity(c),
            None => WorkQueue::new(),
        });
        self.latencies.push(spec.latency_tracker());
        self.warmups.push(spec.warmup);
        self.sinks.push(sink);
        self.adapters.push(spec.uplink_v_adapt.map(|adapt| {
            let base_v = spec.controller.proposed_v().unwrap_or_else(|| {
                panic!("session {id}: uplink_v_adapt requires a Proposed controller")
            });
            adapt.build(base_v)
        }));
        self.rebuild.push(RebuildInfo::of(spec));
        self.liveness.push(Liveness::Live);
        self.local_offsets.push(self.slot);
        self.downtime.push(0);
        self.ids.push(id);
    }

    /// Physically evicts every [`Liveness::Dead`] row from the SoA arrays
    /// (order-preserving), moving its sink, downtime and stable id to the
    /// retired list so telemetry and downtime keep reporting under the
    /// same id. Returns the number of rows evicted.
    ///
    /// Bitwise invisible: the logical (id-indexed) surface — backlogs,
    /// demands, grants, downtime, summaries, `down_sessions` — is
    /// identical before and after, because a retired id contributes
    /// exactly what its dead row did (`0.0` demand/backlog, arithmetic
    /// downtime). Only the per-slot walk cost changes.
    ///
    /// # Panics
    ///
    /// Panics mid-slot (between [`SessionBatch::fill_demands`] and
    /// [`SessionBatch::step_slot_granted`]) — `last_demands` is positional
    /// and must not shift under a pending grant.
    pub fn compact(&mut self) -> usize {
        assert!(
            !self.demands_drawn,
            "compact mid-slot: slot {} has polled demands",
            self.slot
        );
        let keep: Vec<bool> = self
            .liveness
            .iter()
            .map(|l| !matches!(l, Liveness::Dead))
            .collect();
        let evicted = keep.iter().filter(|k| !**k).count();
        if evicted == 0 {
            return 0;
        }
        let slot = self.slot;
        let sinks = std::mem::take(&mut self.sinks);
        let mut kept = Vec::with_capacity(sinks.len() - evicted);
        for (p, sink) in sinks.into_iter().enumerate() {
            if keep[p] {
                kept.push(sink);
            } else {
                self.retired.push(Retired {
                    id: self.ids[p],
                    sink,
                    downtime: self.downtime[p],
                    retire_slot: slot,
                });
            }
        }
        self.sinks = kept;
        compact_vec(&mut self.streams, &keep);
        compact_vec(&mut self.controllers, &keep);
        compact_vec(&mut self.services, &keep);
        compact_vec(&mut self.queues, &keep);
        compact_vec(&mut self.latencies, &keep);
        compact_vec(&mut self.warmups, &keep);
        compact_vec(&mut self.adapters, &keep);
        compact_vec(&mut self.rebuild, &keep);
        compact_vec(&mut self.liveness, &keep);
        compact_vec(&mut self.local_offsets, &keep);
        compact_vec(&mut self.downtime, &keep);
        compact_vec(&mut self.ids, &keep);
        self.dead_rows = 0;
        evicted
    }

    /// Physical row `i`'s liveness (rows shift when
    /// [`SessionBatch::compact`] evicts; without compaction, row == id).
    pub fn liveness(&self, i: usize) -> Liveness {
        self.liveness[i]
    }

    /// Per-session slots missed while down or dead, in stable-id order
    /// (one entry per [`SessionBatch::logical_len`] id). A retired
    /// session's downtime keeps accruing arithmetically — exactly the
    /// per-slot `+1` its dead row would have counted.
    pub fn downtime(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.logical_len()];
        for (p, &id) in self.ids.iter().enumerate() {
            out[id as usize] = self.downtime[p];
        }
        for r in &self.retired {
            out[r.id as usize] = r.downtime + (self.slot - r.retire_slot);
        }
        out
    }

    /// Number of sessions currently down or dead (retired sessions are
    /// dead, so compaction leaves the count unchanged).
    pub fn down_sessions(&self) -> u64 {
        self.liveness.iter().filter(|l| !l.is_live()).count() as u64 + self.retired.len() as u64
    }

    /// Splits the parallel arrays into equal-index chunk tuples — the work
    /// units fanned out over `arvis_par` workers.
    fn chunk_tasks(&mut self) -> Vec<ChunkTask<'_, S>> {
        let c = self.chunk;
        let mut tasks = Vec::with_capacity(self.queues.len().div_ceil(c));
        let mut streams = self.streams.chunks_mut(c);
        let mut controllers = self.controllers.chunks_mut(c);
        let mut services = self.services.chunks_mut(c);
        let mut queues = self.queues.chunks_mut(c);
        let mut latencies = self.latencies.chunks_mut(c);
        let mut sinks = self.sinks.chunks_mut(c);
        let mut liveness = self.liveness.chunks(c);
        let mut offsets = self.local_offsets.chunks(c);
        let mut downtime = self.downtime.chunks_mut(c);
        #[allow(clippy::type_complexity)]
        while let (
            Some(st),
            Some(ct),
            Some(sv),
            Some(qu),
            Some(la),
            Some(si),
            Some(li),
            Some(of),
            Some(dt),
        ) = (
            streams.next(),
            controllers.next(),
            services.next(),
            queues.next(),
            latencies.next(),
            sinks.next(),
            liveness.next(),
            offsets.next(),
            downtime.next(),
        ) {
            tasks.push((st, ct, sv, qu, la, si, li, of, dt));
        }
        tasks
    }

    /// Advances every session by one slot, fanning chunks of sessions out
    /// over the workers.
    ///
    /// Lock-step slot-major stepping is for callers that need cross-session
    /// synchronization points (e.g. per-slot aggregate telemetry or live
    /// admission control). When the whole horizon is known upfront,
    /// [`SessionBatch::run`] is substantially faster: it sweeps each
    /// session's slots back to back, keeping that session's state cache-hot
    /// instead of streaming the entire batch's state through cache once per
    /// slot.
    pub fn step_slot(&mut self) {
        assert!(
            !self.demands_drawn,
            "slot {} has polled demands; complete it with step_slot_granted",
            self.slot
        );
        let slot = self.slot;
        self.slot += 1;
        let tasks = self.chunk_tasks();
        arvis_par::for_each_task(tasks, |_, (st, ct, sv, qu, la, si, li, of, dt)| {
            for i in 0..st.len() {
                if !li[i].is_live() {
                    dt[i] += 1;
                    continue;
                }
                step_kernel(
                    slot - of[i],
                    &mut st[i],
                    &mut sv[i],
                    &mut ct[i],
                    &mut qu[i],
                    &mut la[i],
                    &mut si[i],
                );
            }
        });
    }

    /// Steps every session to the horizon.
    ///
    /// Sessions are mutually independent, so this sweeps session-major
    /// inside each chunk task (every session runs all its remaining slots
    /// while its state is cache-resident) while chunks fan out over the
    /// workers — bit-identical to repeated [`SessionBatch::step_slot`]
    /// calls, and the two can be freely interleaved.
    pub fn run(&mut self) {
        assert!(
            !self.demands_drawn,
            "slot {} has polled demands; complete it with step_slot_granted",
            self.slot
        );
        let (start, horizon) = (self.slot, self.horizon);
        if start >= horizon {
            return;
        }
        self.slot = horizon;
        let tasks = self.chunk_tasks();
        arvis_par::for_each_task(tasks, |_, (st, ct, sv, qu, la, si, li, of, dt)| {
            for i in 0..st.len() {
                if !li[i].is_live() {
                    dt[i] += horizon - start;
                    continue;
                }
                for slot in start..horizon {
                    step_kernel(
                        slot - of[i],
                        &mut st[i],
                        &mut sv[i],
                        &mut ct[i],
                        &mut qu[i],
                        &mut la[i],
                        &mut si[i],
                    );
                }
            }
        });
    }
}

impl SessionBatch<FullTrace> {
    /// A batch recording the full per-slot trace of every session
    /// (O(sessions × slots) memory — the legacy-compatible mode).
    pub fn full_trace(scenario: &Scenario) -> SessionBatch<FullTrace> {
        SessionBatch::new(scenario, |_, _| FullTrace::new())
    }

    /// Finalizes every session into the legacy [`ExperimentResult`]
    /// (batch order).
    pub fn into_results(self) -> Vec<ExperimentResult> {
        let names: Vec<&'static str> = self.controllers.iter().map(|c| c.name()).collect();
        self.sinks
            .into_iter()
            .zip(names)
            .zip(self.warmups)
            .zip(&self.queues)
            .map(|(((trace, name), warmup), queue)| trace.into_result(name, warmup, queue))
            .collect()
    }
}

impl SessionBatch<SummarySink> {
    /// A batch with streaming summary-only telemetry: O(sessions) memory
    /// regardless of the horizon.
    pub fn summary_only(scenario: &Scenario) -> SessionBatch<SummarySink> {
        let slots = scenario.slots;
        SessionBatch::new(scenario, |_, spec| SummarySink::new(spec.warmup, slots))
    }

    /// Finalizes every session's streaming summary, in stable-id order
    /// (one entry per [`SessionBatch::logical_len`] id): retired sessions
    /// report their sink frozen at the crash — bitwise the summary their
    /// dead row would have finished with, since dead rows never feed
    /// their sink.
    pub fn into_summaries(self) -> Vec<crate::telemetry::SessionSummary> {
        let mut out: Vec<Option<crate::telemetry::SessionSummary>> =
            (0..self.logical_len()).map(|_| None).collect();
        for r in &self.retired {
            out[r.id as usize] = Some(r.sink.finish());
        }
        for (p, sink) in self.sinks.iter().enumerate() {
            out[self.ids[p] as usize] = Some(sink.finish());
        }
        out.into_iter()
            .map(|s| s.expect("every stable id has exactly one sink"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::scenario::ControllerSpec;
    use crate::telemetry::NullSink;
    use arvis_quality::DepthProfile;

    fn profile() -> DepthProfile {
        DepthProfile::from_parts(
            5,
            vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
            vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        )
    }

    fn config(rate: f64, slots: u64) -> ExperimentConfig {
        ExperimentConfig::new(profile(), rate, slots).with_controller_v(1e7)
    }

    #[test]
    fn session_steps_incrementally() {
        let cfg = config(2_000.0, 50);
        let spec = SessionSpec::from_config(&cfg, ControllerSpec::OnlyMax);
        let mut session = Session::new(spec, cfg.slots);
        assert_eq!(session.slot(), 0);
        assert!(!session.is_done());
        let mut sink = NullSink;
        let first = session.step(&mut sink);
        assert_eq!(first.slot, 0);
        assert_eq!(first.depth, 10);
        assert_eq!(first.arrival, 102_400.0);
        // Lindley: nothing to serve in slot 0, then the arrival enters.
        assert_eq!(first.backlog, 102_400.0);
        assert_eq!(session.slot(), 1);
        while !session.is_done() {
            session.step(&mut sink);
        }
        assert_eq!(session.slot(), 50);
        // Stepping past the horizon is allowed.
        let extra = session.step(&mut sink);
        assert_eq!(extra.slot, 50);
    }

    #[test]
    fn session_run_to_result_matches_summary_sink_means() {
        let cfg = config(2_000.0, 400);
        let spec = SessionSpec::from_config(&cfg, ControllerSpec::Proposed { v: 1e7 });
        let result = Session::new(spec.clone(), cfg.slots).run_to_result();

        let mut session = Session::new(spec, cfg.slots);
        let mut sink = SummarySink::new(cfg.warmup, cfg.slots);
        session.run(&mut sink);
        let summary = sink.finish();

        assert_eq!(summary.slots, 400);
        assert!((summary.mean_quality - result.mean_quality).abs() < 1e-12);
        assert!((summary.mean_backlog - result.mean_backlog).abs() < 1e-12);
        assert!((summary.dropped_total - result.dropped_total).abs() < 1e-12);
        assert!(
            (summary.frame_latency_mean - result.frame_latency.mean).abs() < 1e-12,
            "streaming latency mean must be exact"
        );
        assert_eq!(
            summary.littles_delay.is_some(),
            result.littles_delay.is_some()
        );
        assert!((summary.littles_delay.unwrap() - result.littles_delay.unwrap()).abs() < 1e-12);
        assert_eq!(summary.stable, result.stable);
        assert!((summary.depth_switch_rate - result.depth_switch_rate).abs() < 1e-12);
    }

    #[test]
    fn batch_runs_all_sessions_to_horizon() {
        let cfg = config(2_000.0, 120);
        let scenario = Scenario::replicated(&cfg, ControllerSpec::Proposed { v: 1e7 }, 9);
        let mut batch = SessionBatch::summary_only(&scenario);
        assert_eq!(batch.len(), 9);
        batch.run();
        assert!(batch.is_done());
        assert_eq!(batch.slot(), 120);
        let summaries = batch.into_summaries();
        assert_eq!(summaries.len(), 9);
        for s in &summaries {
            assert_eq!(s.slots, 120);
            assert!(s.stable);
        }
    }

    #[test]
    fn batch_total_backlog_is_chunk_invariant() {
        let cfg = config(2_000.0, 60);
        let scenario = Scenario::replicated(&cfg, ControllerSpec::OnlyMax, 13);
        let mut a = SessionBatch::summary_only(&scenario).with_chunk_size(3);
        let mut b = SessionBatch::summary_only(&scenario).with_chunk_size(64);
        a.run();
        b.run();
        assert_eq!(a.total_backlog().to_bits(), b.total_backlog().to_bits());
        assert!(a.total_backlog() > 0.0);
    }

    #[test]
    fn batch_full_trace_exposes_series() {
        let cfg = config(2_000.0, 40);
        let scenario = Scenario::single(&cfg, ControllerSpec::OnlyMin);
        let mut batch = SessionBatch::full_trace(&scenario);
        batch.run();
        assert_eq!(batch.sinks()[0].backlog.len(), 40);
        let results = batch.into_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].controller, "only_min_depth");
        assert_eq!(results[0].backlog.len(), 40);
    }

    #[test]
    fn csv_trace_matches_to_csv_and_labels_real_slots() {
        let cfg = config(2_000.0, 30);
        let spec = SessionSpec::from_config(&cfg, ControllerSpec::Proposed { v: 1e7 });

        // Full run: the streaming CSV must equal the retained-trace CSV.
        let mut csv_sink = crate::telemetry::CsvTrace::new();
        Session::new(spec.clone(), cfg.slots).run(&mut csv_sink);
        let result = Session::new(spec.clone(), cfg.slots).run_to_result();
        assert_eq!(csv_sink.csv(), result.to_csv());

        // Attached mid-run: rows are labelled with the simulated slot.
        let mut session = Session::new(spec, cfg.slots);
        let mut warmup_sink = NullSink;
        for _ in 0..5 {
            session.step(&mut warmup_sink);
        }
        let mut late = crate::telemetry::CsvTrace::new();
        session.step(&mut late);
        let first_row = late.csv().lines().nth(1).expect("one data row");
        assert!(first_row.starts_with("5,"), "got {first_row}");
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn batch_rejects_zero_chunk() {
        let cfg = config(2_000.0, 10);
        let scenario = Scenario::single(&cfg, ControllerSpec::OnlyMin);
        let _ = SessionBatch::summary_only(&scenario).with_chunk_size(0);
    }
}
