//! The session runtime: N sessions stepped as one struct-of-arrays batch.
//!
//! The paper's closed loop (Algorithm 1) is one per-slot sequence per
//! device: observe `Q(t)`, pick `d*(t)`, inject `a(d)`, serve `b(t)`. A
//! [`SessionBatch`] holds the state of N sessions in parallel arrays
//! (struct-of-arrays: one `Vec` per component) and runs that sequence
//! through one slot kernel for every path:
//!
//! - [`SessionBatch::run`] sweeps each session's remaining slots back to
//!   back (session-major), fanning fixed-size chunks of sessions out over
//!   `arvis_par` workers — the uncoupled path, and through
//!   [`crate::experiment::Experiment::run`] the one way to run a
//!   caller-defined controller;
//! - [`SessionBatch::fill_demands`] and [`SessionBatch::step_slot_granted`]
//!   split one slot in two around a shared-uplink admission decision (see
//!   [`crate::uplink`]) — the contended path.
//!
//! Sessions are mutually independent, so batch results are bit-identical
//! for every worker count, chunk size and session order — the same
//! determinism contract as the octree and quality hot paths.
//!
//! Memory is O(sessions) with summary-only sinks: per-session state is the
//! queue scalars, the controller enum, the service process and the frames
//! currently awaiting service. Nothing scales with the horizon — except the
//! in-flight frame records of a *diverging* session, whose backlog (and
//! hence unserved-frame count) is unbounded by definition.

use std::ops::Range;

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

/// Enum-dispatched service process state (the closed [`ServiceSpec`] set).
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

/// The one slot kernel: Algorithm 1's observe → decide → inject → serve
/// sequence for one session at local slot `slot`, serving up to `b`, with
/// telemetry routed through the sink.
///
/// The caller supplies the slot's service capacity. The uncoupled loop
/// ([`run_slots`]) draws it from the session's own service process; the
/// contended slot polls every session's capacity first
/// ([`SessionBatch::fill_demands`]), admits the aggregate against a shared
/// budget, and passes the grant. Both draw the service process exactly
/// once per slot, so an unconstrained grant is bit-identical to the
/// uncoupled run.
fn slot_kernel<C: DepthController + ?Sized, S: TelemetrySink>(
    slot: u64,
    stream: &mut StreamState,
    b: f64,
    controller: &mut C,
    queue: &mut WorkQueue,
    latency: &mut FifoLatencyTracker,
    sink: &mut S,
) {
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
    sink.on_slot(&SlotOutcome {
        slot,
        depth: d,
        quality: p,
        arrival: a,
        service: b,
        served: step.served,
        dropped: step.dropped,
        backlog: step.backlog,
    });
}

/// The uncoupled per-row loop, shared by [`SessionBatch::run`] and
/// [`crate::experiment::Experiment::run`]: one session steps the local
/// slots `slots` back to back, drawing its own service process once per
/// slot.
fn run_slots<C: DepthController + ?Sized, S: TelemetrySink>(
    slots: Range<u64>,
    stream: &mut StreamState,
    service: &mut ServiceState,
    controller: &mut C,
    queue: &mut WorkQueue,
    latency: &mut FifoLatencyTracker,
    sink: &mut S,
) {
    for slot in slots {
        let b = service.capacity(slot);
        slot_kernel(slot, stream, b, controller, queue, latency, sink);
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

/// The spec fragments a row is built from, kept per row so a restart
/// rebuilds exactly what construction built (everything but the stream,
/// which stays in the batch's arrays).
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

    fn service(&self) -> ServiceState {
        ServiceState::build(self.service, self.seed)
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

    /// The uplink-aware `V` adapter of session `id`, if it declares one.
    ///
    /// # Panics
    ///
    /// Panics when the spec declares `uplink_v_adapt` without a
    /// [`ControllerSpec::Proposed`] controller.
    fn adapter(&self, id: u64) -> Option<GrantRatioV> {
        self.uplink_v_adapt.map(|adapt| {
            let base_v = self.controller.proposed_v().unwrap_or_else(|| {
                panic!("session {id}: uplink_v_adapt requires a Proposed controller")
            });
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

/// The same rows of every per-row array a fan-out touches: entry `i` of
/// each slice is one session. The batch's whole arrays split into these
/// as its fan-out work units ([`SessionBatch::chunks`]).
struct Rows<'a, S> {
    streams: &'a mut [StreamState],
    controllers: &'a mut [BuiltController],
    services: &'a mut [ServiceState],
    queues: &'a mut [WorkQueue],
    latencies: &'a mut [FifoLatencyTracker],
    sinks: &'a mut [S],
    adapters: &'a mut [Option<GrantRatioV>],
    demands: &'a mut [f64],
    liveness: &'a mut [Liveness],
    offsets: &'a mut [u64],
    downtime: &'a mut [u64],
}

impl<'a, S> Rows<'a, S> {
    fn len(&self) -> usize {
        self.streams.len()
    }

    /// Splits off the first `n` rows of every array. An array shorter
    /// than `n` panics here instead of shortening the chunk.
    fn split_front(&mut self, n: usize) -> Rows<'a, S> {
        fn front<'a, T>(column: &mut &'a mut [T], n: usize) -> &'a mut [T] {
            let (head, tail) = std::mem::take(column).split_at_mut(n);
            *column = tail;
            head
        }
        Rows {
            streams: front(&mut self.streams, n),
            controllers: front(&mut self.controllers, n),
            services: front(&mut self.services, n),
            queues: front(&mut self.queues, n),
            latencies: front(&mut self.latencies, n),
            sinks: front(&mut self.sinks, n),
            adapters: front(&mut self.adapters, n),
            demands: front(&mut self.demands, n),
            liveness: front(&mut self.liveness, n),
            offsets: front(&mut self.offsets, n),
            downtime: front(&mut self.downtime, n),
        }
    }
}

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
/// queues, latency trackers, sinks, ...) keeps each component type
/// contiguous; a fan-out splits every array into the same chunks of rows
/// and hands the chunks to [`arvis_par`] workers. Sessions never interact,
/// so the batch is deterministic regardless of worker count, chunk size,
/// and session order.
///
/// # Stable ids and the logical view
///
/// Every session has a stable id — its creation index: scenario order for
/// the initial fleet, then [`SessionBatch::spawn_at`] order. Without churn,
/// ids and physical row indices coincide and everything below reduces to
/// the fixed-N behavior bit-for-bit. With churn, [`SessionBatch::compact`]
/// may physically evict [`Liveness::Dead`] rows of a summary batch. Rows
/// keep ascending ids, so a row is found from its id by binary search.
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
    demands: Vec<f64>,
    /// The spec fragments each session was built from and restarts
    /// rebuild from.
    rebuild: Vec<RebuildInfo>,
    /// Per-session liveness (all [`Liveness::Live`] without faults).
    liveness: Vec<Liveness>,
    /// Per-session local-clock offsets: a session that joins or
    /// cold-restarts at batch slot `r` gets offset `r`, and every kernel
    /// thereafter runs on `slot - local_offsets[i]` — which makes its
    /// trajectory *identical by construction* to a fresh session with the
    /// residual horizon. All-zero without churn or faults, where `slot - 0`
    /// reproduces the fault-free arithmetic exactly.
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
            demands: Vec::with_capacity(n),
            rebuild: Vec::with_capacity(n),
            liveness: Vec::with_capacity(n),
            local_offsets: Vec::with_capacity(n),
            downtime: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            next_id: 0,
            retired: Vec::new(),
            dead_rows: 0,
            slot: 0,
            horizon: scenario.slots,
            chunk: DEFAULT_SESSIONS_PER_CHUNK,
            demands_drawn: false,
        };
        for (i, spec) in scenario.sessions.iter().enumerate() {
            batch.push_row(spec, make_sink(i, spec));
        }
        batch
    }

    /// The one row builder: appends a session freshly built from `spec` to
    /// every array, live, under the next stable id, with its local clock
    /// starting at the batch's current slot.
    fn push_row(&mut self, spec: &SessionSpec, sink: S) {
        let id = self.next_id;
        self.next_id += 1;
        let rebuild = RebuildInfo::of(spec);
        self.adapters.push(rebuild.adapter(id));
        self.streams.push(StreamState::new(spec.stream.clone()));
        self.controllers.push(rebuild.controller.build());
        self.services.push(rebuild.service());
        self.queues.push(rebuild.queue());
        self.latencies.push(rebuild.latency());
        self.warmups.push(spec.warmup);
        self.sinks.push(sink);
        self.demands.push(0.0);
        self.rebuild.push(rebuild);
        self.liveness.push(Liveness::Live);
        self.local_offsets.push(self.slot);
        self.downtime.push(0);
        self.ids.push(id);
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
    /// order, as [`SessionBatch::run`] — so granting each session its full
    /// demand reproduces the uncoupled batch bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics when called twice for the same slot (demands already drawn)
    /// or when the batch is already past its horizon.
    pub fn fill_demands(&mut self, out: &mut Vec<f64>) {
        self.draw_demands();
        self.scatter(self.demands.iter().copied(), out);
    }

    /// [`SessionBatch::fill_demands`] per physical row: the slot's demands
    /// in row order, with the same draws and panics.
    pub(crate) fn demand_rows(&mut self, out: &mut Vec<f64>) {
        self.draw_demands();
        out.clear();
        out.extend_from_slice(&self.demands);
    }

    /// Draws the slot's demands into `demands`, one per physical row.
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
        arvis_par::for_each_task(self.chunks(), |_, rows| {
            for i in 0..rows.len() {
                // A down or dead session demands nothing and — crucially —
                // draws nothing: its service process is not advanced, so a
                // cold restart replays a fresh process from its own seed.
                rows.demands[i] = if rows.liveness[i].is_live() {
                    rows.services[i].capacity(slot - rows.offsets[i])
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
        let grants = granted.chunks(self.chunk);
        let tasks: Vec<_> = self.chunks().into_iter().zip(grants).collect();
        arvis_par::for_each_task(tasks, |_, (rows, grants)| {
            for (i, &grant) in grants.iter().enumerate() {
                if !rows.liveness[i].is_live() {
                    rows.downtime[i] += 1;
                    continue;
                }
                if let Some(adapter) = rows.adapters[i].as_mut() {
                    // The slot's admission outcome: what fraction of the
                    // polled demand the uplink granted (1 when idle).
                    let demand = rows.demands[i];
                    let ratio = if demand > 0.0 { grant / demand } else { 1.0 };
                    rows.controllers[i].set_v(adapter.observe(ratio));
                }
                slot_kernel(
                    slot - rows.offsets[i],
                    &mut rows.streams[i],
                    grant,
                    &mut rows.controllers[i],
                    &mut rows.queues[i],
                    &mut rows.latencies[i],
                    &mut rows.sinks[i],
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
    /// the contended path; the uncoupled [`SessionBatch::run`] skips
    /// non-live sessions but never restarts them.
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
            let rebuild = &self.rebuild[i];
            self.controllers[i] = rebuild.controller.build();
            self.adapters[i] = rebuild.adapter(self.ids[i]);
            match policy {
                CrashPolicy::ColdRestart => {
                    self.services[i] = rebuild.service();
                    self.queues[i] = rebuild.queue();
                    self.latencies[i] = rebuild.latency();
                    self.local_offsets[i] = slot;
                }
                CrashPolicy::WarmRestart => {}
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
        self.push_row(spec, sink);
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

    /// Splits every per-row array into the same chunks of `chunk` rows —
    /// the work units fanned out over `arvis_par` workers.
    fn chunks(&mut self) -> Vec<Rows<'_, S>> {
        let chunk = self.chunk;
        let mut rest = Rows {
            streams: &mut self.streams,
            controllers: &mut self.controllers,
            services: &mut self.services,
            queues: &mut self.queues,
            latencies: &mut self.latencies,
            sinks: &mut self.sinks,
            adapters: &mut self.adapters,
            demands: &mut self.demands,
            liveness: &mut self.liveness,
            offsets: &mut self.local_offsets,
            downtime: &mut self.downtime,
        };
        (0..rest.len().div_ceil(chunk))
            .map(|_| rest.split_front(chunk.min(rest.len())))
            .collect()
    }

    /// Steps every session to the horizon.
    ///
    /// Sessions are mutually independent, so this sweeps session-major
    /// inside each chunk task (every session runs all its remaining slots
    /// while its state is cache-resident) while chunks fan out over the
    /// workers. Down and dead sessions are skipped (and count the slots as
    /// downtime), never restarted.
    ///
    /// # Panics
    ///
    /// Panics mid-slot, between [`SessionBatch::fill_demands`] and
    /// [`SessionBatch::step_slot_granted`].
    pub fn run(&mut self) {
        assert!(
            !self.demands_drawn,
            "slot {} has polled demands; complete it with step_slot_granted",
            self.slot
        );
        let (start, end) = (self.slot, self.horizon);
        if start >= end {
            return;
        }
        self.slot = end;
        arvis_par::for_each_task(self.chunks(), |_, rows| {
            for i in 0..rows.len() {
                if !rows.liveness[i].is_live() {
                    rows.downtime[i] += end - start;
                    continue;
                }
                let offset = rows.offsets[i];
                run_slots(
                    start - offset..end - offset,
                    &mut rows.streams[i],
                    &mut rows.services[i],
                    &mut rows.controllers[i],
                    &mut rows.queues[i],
                    &mut rows.latencies[i],
                    &mut rows.sinks[i],
                );
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
    /// (stable-id order: a full-trace batch never evicts a row).
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

    /// Runs a fresh one-session batch to the horizon under `controller`
    /// in place of the session's own, on the calling thread (the caller's
    /// controller need not be `Send`), and finalizes it under that
    /// controller's name: the open-trait path of
    /// [`crate::experiment::Experiment::run`].
    ///
    pub(crate) fn run_with(mut self, controller: &mut dyn DepthController) -> ExperimentResult {
        assert_eq!(self.len(), 1, "run_with steps a one-session batch");
        run_slots(
            0..self.horizon,
            &mut self.streams[0],
            &mut self.services[0],
            controller,
            &mut self.queues[0],
            &mut self.latencies[0],
            &mut self.sinks[0],
        );
        let trace = self.sinks.remove(0);
        trace.into_result(controller.name(), self.warmups[0], &self.queues[0])
    }
}

impl SessionBatch<SummarySink> {
    /// A batch with streaming summary-only telemetry: O(sessions) memory
    /// regardless of the horizon.
    pub fn summary_only(scenario: &Scenario) -> SessionBatch<SummarySink> {
        let slots = scenario.slots;
        SessionBatch::new(scenario, |_, spec| SummarySink::new(spec.warmup, slots))
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
    /// downtime). Only the per-slot walk cost changes. Only summary
    /// batches compact, because only [`SessionBatch::into_summaries`]
    /// reports retired sessions.
    ///
    /// # Panics
    ///
    /// Panics mid-slot (between [`SessionBatch::fill_demands`] and
    /// [`SessionBatch::step_slot_granted`]) — the drawn demands are
    /// positional and must not shift under a pending grant.
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
        compact_vec(&mut self.demands, &keep);
        compact_vec(&mut self.rebuild, &keep);
        compact_vec(&mut self.liveness, &keep);
        compact_vec(&mut self.local_offsets, &keep);
        compact_vec(&mut self.downtime, &keep);
        compact_vec(&mut self.ids, &keep);
        self.dead_rows = 0;
        evicted
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
    use crate::scenario::FleetSpec;
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

    /// Every session of `scenario` run to the horizon under a full trace.
    fn results(scenario: &Scenario) -> Vec<ExperimentResult> {
        let mut batch = SessionBatch::full_trace(scenario);
        batch.run();
        batch.into_results()
    }

    #[test]
    fn first_slot_follows_the_lindley_recursion() {
        let cfg = config(2_000.0, 50);
        let mut batch = SessionBatch::full_trace(&Scenario::single(&cfg, ControllerSpec::OnlyMax));
        assert_eq!(batch.slot(), 0);
        assert!(!batch.is_done());
        batch.run();
        assert_eq!(batch.slot(), 50);
        // A finished batch stays finished.
        batch.run();
        assert_eq!(batch.slot(), 50);
        let trace = &batch.sinks()[0];
        assert_eq!(trace.backlog.len(), 50);
        assert_eq!(trace.depth.values()[0], 10.0);
        assert_eq!(trace.arrivals.values()[0], 102_400.0);
        // Lindley: nothing to serve in slot 0, then the arrival enters.
        assert_eq!(trace.backlog.values()[0], 102_400.0);
    }

    #[test]
    fn full_trace_and_summary_sink_agree_on_the_means() {
        let cfg = config(2_000.0, 400);
        let scenario = Scenario::single(&cfg, ControllerSpec::Proposed { v: 1e7 });
        let result = results(&scenario).remove(0);

        let mut batch = SessionBatch::summary_only(&scenario);
        batch.run();
        let summary = batch.into_summaries().remove(0);

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
    fn fleet_devices_stabilize_independently() {
        let base = config(2_000.0, 600);
        let homogeneous = results(&Scenario::fleet(&base, FleetSpec::homogeneous(4)));
        assert_eq!(homogeneous.len(), 4);
        // Same deterministic setup -> identical qualities.
        for r in &homogeneous {
            assert!(r.stable);
            assert!((r.mean_quality - homogeneous[0].mean_quality).abs() < 1e-12);
        }
        // Quality-vs-rate is non-monotone pointwise (the controller
        // time-shares a coarse discrete depth set), but the ordering must
        // hold between the extremes of a 1.0 spread, and every device is
        // independently stable — the distributed claim.
        let heterogeneous = results(&Scenario::fleet(&base, FleetSpec::heterogeneous(5, 1.0)));
        assert_eq!(heterogeneous.len(), 5);
        assert!(heterogeneous[4].mean_quality > heterogeneous[0].mean_quality);
        assert!(heterogeneous.iter().all(|r| r.stable));
    }

    #[test]
    fn sweeps_trace_the_quality_delay_tradeoff() {
        let base = ExperimentConfig::new(profile(), 2_000.0, 1_000);
        // Quality and backlog both non-decreasing in V.
        let vs = results(&Scenario::v_sweep(&base, &[1e4, 1e5, 1e6, 1e7, 1e8]));
        for w in vs.windows(2) {
            assert!(w[1].mean_quality >= w[0].mean_quality - 1e-9);
            assert!(w[1].mean_backlog >= w[0].mean_backlog - 1e-9);
        }
        // More capacity, more quality; the scheduler adapts to every rate.
        let rates = [500.0, 2_000.0, 8_000.0, 32_000.0];
        let by_rate = results(&Scenario::rate_sweep(&base.with_controller_v(1e7), &rates));
        for w in by_rate.windows(2) {
            assert!(w[1].mean_quality >= w[0].mean_quality - 1e-9);
        }
        assert!(by_rate.iter().all(|r| r.stable));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn batch_rejects_zero_chunk() {
        let cfg = config(2_000.0, 10);
        let scenario = Scenario::single(&cfg, ControllerSpec::OnlyMin);
        let _ = SessionBatch::summary_only(&scenario).with_chunk_size(0);
    }
}
