//! The arvis benchmark: three seeded workloads driven through the
//! program's public entry points in a closed loop from one thread,
//! with every output checked, plus a separate traced run that times each
//! layer from outside. See `README.md` beside this crate for the workloads,
//! the metrics and the noise findings behind them.

pub mod cell;
pub mod clock;
pub mod fleet;
pub mod gen;
pub mod pipeline;
pub mod stats;
pub mod sys;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Debug;

use arvis_core::telemetry::SessionSummary;

pub use gen::Size;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~4096 heterogeneous uncoupled sessions, stepped session-major.
    UncoupledFleet,
    /// A churning, faulted cell of tenants behind one uplink, stepped slot
    /// by slot.
    TenantCell,
    /// Real octrees encoded, decoded and verified every slot.
    EncodedPipeline,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::UncoupledFleet,
        Workload::TenantCell,
        Workload::EncodedPipeline,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UncoupledFleet => "uncoupled_fleet",
            Workload::TenantCell => "tenant_cell",
            Workload::EncodedPipeline => "encoded_pipeline",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A reported metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run, printed by every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("session_slots_per_s", "1/s", "higher"),
    def("slot_p50_ms", "ms", "lower"),
    def("slot_p90_ms", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Metrics of a traced run, printed by every workload; a layer the
/// workload bypasses reports 0 calls and 0 time.
pub const PER_LAYER: &[MetricDef] = &[
    def("scenario.parse_ms", "ms", "lower"),
    def("scenario.parse_ms.calls", "count", "lower"),
    def("scenario.hash_ms", "ms", "lower"),
    def("scenario.hash_ms.calls", "count", "lower"),
    def("scenario.bytes", "B", "lower"),
    def("session.build_ms", "ms", "lower"),
    def("session.build_ms.calls", "count", "lower"),
    def("session.run_ms", "ms", "lower"),
    def("session.run_ms.calls", "count", "lower"),
    def("telemetry.finalize_ms", "ms", "lower"),
    def("telemetry.finalize_ms.calls", "count", "lower"),
    def("session.session_slots", "count", "higher"),
    def("session.fill_backlogs_us", "us", "lower"),
    def("session.fill_backlogs_us.calls", "count", "lower"),
    def("session.fill_demands_us", "us", "lower"),
    def("session.fill_demands_us.calls", "count", "lower"),
    def("session.step_granted_us", "us", "lower"),
    def("session.step_granted_us.calls", "count", "lower"),
    def("session.live_row_frac", "ratio", "higher"),
    def("session.logical_width_mean", "sessions", "lower"),
    def("uplink.budget_us", "us", "lower"),
    def("uplink.budget_us.calls", "count", "lower"),
    def("uplink.sums_us", "us", "lower"),
    def("uplink.sums_us.calls", "count", "lower"),
    def("uplink.allocate_us", "us", "lower"),
    def("uplink.allocate_us.calls", "count", "lower"),
    def("uplink.contended_frac", "ratio", "lower"),
    def("fault.plane_us", "us", "lower"),
    def("fault.plane_us.calls", "count", "lower"),
    def("fault.shed_slots", "count", "lower"),
    def("fault.lost_frac", "ratio", "lower"),
    def("churn.step_us", "us", "lower"),
    def("churn.step_us.calls", "count", "lower"),
    def("churn.joins", "count", "higher"),
    def("churn.departures", "count", "higher"),
    def("churn.compacted_rows", "count", "higher"),
    def("par.workers_us", "us", "lower"),
    def("par.workers_us.calls", "count", "lower"),
    def("par.slot_speedup", "ratio", "higher"),
    def("par.run_speedup", "ratio", "higher"),
    def("par.prepare_speedup", "ratio", "higher"),
    def("octree.build_ms", "ms", "lower"),
    def("octree.build_ms.calls", "count", "lower"),
    def("octree.size_ms", "ms", "lower"),
    def("octree.size_ms.calls", "count", "lower"),
    def("controller.decide_us", "us", "lower"),
    def("controller.decide_us.calls", "count", "lower"),
    def("codec.encode_us", "us", "lower"),
    def("codec.encode_us.calls", "count", "lower"),
    def("codec.decode_us", "us", "lower"),
    def("codec.decode_us.calls", "count", "lower"),
    def("octree.lod_us", "us", "lower"),
    def("octree.lod_us.calls", "count", "lower"),
    def("codec.verify_us", "us", "lower"),
    def("codec.verify_us.calls", "count", "lower"),
    def("queue.step_us", "us", "lower"),
    def("queue.step_us.calls", "count", "lower"),
    def("pipeline.encode_hit_frac", "ratio", "higher"),
    def("codec.bytes_per_frame", "B", "lower"),
    def("codec.decode_errors", "count", "lower"),
    def("trace.unattributed_frac", "ratio", "lower"),
    def("trace.overhead_frac", "ratio", "lower"),
    def("trace.divergent", "count", "lower"),
];

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (repetitions and check passes) attempted.
    pub attempted: u64,
    /// Operations whose correctness checks failed.
    pub failed: u64,
    /// The first few failed checks, for the report.
    pub failures: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra report lines (e.g. an unregistered percentile with its
    /// sample count).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets `<stem>` (a `_us` or `_ms` metric) to the median self time of
    /// the spans named `stem` less its unit suffix, and `<stem>.calls` to
    /// their count.
    pub fn set_layer(&mut self, tracer: &trace::Tracer, stem: &str) {
        let (span, value): (&str, fn(&trace::LayerTime) -> f64) = match stem.strip_suffix("_us") {
            Some(span) => (span, trace::LayerTime::median_us),
            None => (
                stem.strip_suffix("_ms").unwrap_or(stem),
                trace::LayerTime::median_ms,
            ),
        };
        let layer = tracer.layer(span);
        self.set(stem, value(&layer));
        self.set(&format!("{stem}.calls"), layer.calls as f64);
    }
}

/// Counts operations and the checks that fail in them.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    op_ok: bool,
}

impl Checker {
    /// Starts an operation.
    pub fn begin(&mut self) {
        self.attempted += 1;
        self.op_ok = true;
    }

    /// Records one check of the current operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.op_ok = false;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Ends the current operation.
    pub fn end(&mut self) {
        if !self.op_ok {
            self.failed += 1;
        }
    }

    /// Moves the counts into `outcome`.
    pub fn finish(self, outcome: &mut Outcome) {
        outcome.attempted += self.attempted;
        outcome.failed += self.failed;
        outcome.failures.extend(self.failures);
    }
}

/// Measured repetitions after which a timed run reads its peak RSS.
pub const RSS_REPS: usize = 3;

/// Runs one warm-up repetition (`rep(false)`), then measured repetitions
/// (`rep(true)`) back to back until `seconds` have passed and at least
/// [`RSS_REPS`] have run. Returns the peak RSS (MiB) read once the warm-up
/// and the first [`RSS_REPS`] measured repetitions have run: later
/// repetitions repeat the same work, so what they add to the peak is
/// allocator drift that grows with how many fit in `seconds`.
pub fn closed_loop(seconds: f64, mut rep: impl FnMut(bool)) -> f64 {
    rep(false);
    let start = clock::now_ns();
    let budget = (seconds.max(0.0) * 1e9) as u64;
    let mut measured = 0;
    let mut peak_rss_mb = 0.0;
    while measured < RSS_REPS || clock::now_ns() - start < budget {
        rep(true);
        measured += 1;
        if measured == RSS_REPS {
            peak_rss_mb = sys::peak_rss_mb();
        }
    }
    peak_rss_mb
}

/// `true` when two values print identically under `Debug`: the f64
/// `Debug` form round-trips exactly, so for NaN-free data this is
/// bitwise equality of every field.
pub fn same_bits<T: Debug + ?Sized>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Checks that every summary field is finite, except the one `telemetry`
/// documents as absent (`littles_delay` of a session that served
/// nothing).
pub fn check_summaries(checker: &mut Checker, summaries: &[SessionSummary]) {
    for (i, s) in summaries.iter().enumerate() {
        let fields = [
            ("mean_quality", s.mean_quality),
            ("mean_backlog", s.mean_backlog),
            ("backlog_p95", s.backlog_p95),
            ("backlog_p99", s.backlog_p99),
            ("frame_latency_mean", s.frame_latency_mean),
            ("frame_latency_p95", s.frame_latency_p95),
            ("frame_latency_p99", s.frame_latency_p99),
            ("dropped_total", s.dropped_total),
            ("depth_switch_rate", s.depth_switch_rate),
            ("littles_delay", s.littles_delay.unwrap_or(0.0)),
        ];
        for (name, v) in fields {
            checker.check(v.is_finite(), || format!("session {i}: {name} = {v}"));
        }
    }
}

/// Probes `arvis_par::workers()`, the lookup every fan-out makes: a span
/// named `par.workers` around each of `calls` calls, one group per call.
pub fn probe_workers(calls: u64) -> trace::Tracer {
    let mut tracer = trace::Tracer::new();
    for i in 0..calls {
        tracer.span("par.workers", i, || {
            std::hint::black_box(arvis_par::workers())
        });
    }
    tracer
}

/// Runs `workload` on the inputs generated from `seed` at `size`: the
/// timed run (`trace == false`, end-to-end metrics) or the traced run
/// (per-layer metrics). `trace_dir` receives the traced run's spans. The
/// process's peak RSS is reset first, so a run that follows another in the
/// same process reports its own peak.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    trace_dir: Option<&std::path::Path>,
) -> Outcome {
    let spans_file = trace_dir.map(|d| d.join(format!("{}-seed{seed}.tsv", workload.name())));
    let spans_file = spans_file.as_deref();
    let reset = sys::reset_peak_rss();
    let mut outcome = match (workload, trace) {
        (Workload::UncoupledFleet, false) => fleet::timed(seed, size, seconds),
        (Workload::UncoupledFleet, true) => fleet::traced(seed, size, spans_file),
        (Workload::TenantCell, false) => cell::timed(seed, size, seconds),
        (Workload::TenantCell, true) => cell::traced(seed, size, spans_file),
        (Workload::EncodedPipeline, false) => pipeline::timed(seed, size, seconds),
        (Workload::EncodedPipeline, true) => pipeline::traced(seed, size, spans_file),
    };
    if !reset {
        outcome
            .notes
            .push("peak RSS not reset: it covers the whole process".to_string());
    }
    outcome
}

/// A report line with the spread of a metric's per-repetition samples.
pub fn spread_note(name: &str, values: &[f64]) -> String {
    format!(
        "{name} over {} repetitions: min {} median {} max {}",
        values.len(),
        fmt_value(stats::quantile(values, 0.0)),
        fmt_value(stats::median(values)),
        fmt_value(stats::quantile(values, 1.0))
    )
}

/// Formats a metric value: every digit as measured, non-finite values
/// (which no metric should produce) as 0.
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `defs` (0 where the run measured none).
pub fn result_json(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                fmt_value(v),
                d.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}
