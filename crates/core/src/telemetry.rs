//! Pluggable per-session telemetry and the shared CSV emission helpers.
//!
//! The session runtime ([`crate::session`]) separates *simulation* from
//! *observation*: every slot the stepping kernel hands a [`SlotOutcome`]
//! (and any frames that completed during the slot) to a [`TelemetrySink`]
//! chosen by the caller. The sink decides what to keep:
//!
//! - [`FullTrace`] retains every per-slot series — O(slots) memory, exactly
//!   the paper's Fig. 2 data, and the backing store of the legacy
//!   [`crate::experiment::ExperimentResult`];
//! - [`SummarySink`] keeps streaming accumulators only — O(1) memory per
//!   session, which is what makes a [`crate::session::SessionBatch`] of
//!   millions of sessions O(sessions) instead of O(sessions × slots).
//!   Percentiles come from [`P2Quantile`] streaming estimators.
//!
//! The module also owns the one CSV escaping/formatting helper
//! ([`CsvRow`]) shared by every CSV producer in the workspace
//! ([`crate::experiment::ExperimentResult::to_csv`], the summary rows, and
//! the `experiments` binary's fleet and sweep tables), so quoting rules
//! live in exactly one place.

use arvis_sim::latency::FrameLatency;
use arvis_sim::stats::{P2Quantile, SummaryStats, TimeSeries};
use serde::{Deserialize, Serialize};

use crate::experiment::ExperimentResult;
use crate::session::SlotOutcome;

// ---------------------------------------------------------------------------
// CSV helpers
// ---------------------------------------------------------------------------

/// Appends `field` to `buf` with RFC-4180 escaping: fields containing a
/// comma, double quote, CR or LF are wrapped in double quotes with inner
/// quotes doubled. Plain fields (every field the crate emits today) pass
/// through byte-identical.
fn push_escaped(buf: &mut String, field: &str) {
    if field.contains([',', '"', '\n', '\r']) {
        buf.push('"');
        for ch in field.chars() {
            if ch == '"' {
                buf.push('"');
            }
            buf.push(ch);
        }
        buf.push('"');
    } else {
        buf.push_str(field);
    }
}

/// Builder for one CSV row; the single formatting/escaping path shared by
/// every CSV emitter in the crate.
#[derive(Debug, Clone, Default)]
pub struct CsvRow {
    buf: String,
    any: bool,
}

impl CsvRow {
    /// Starts an empty row.
    pub fn new() -> CsvRow {
        CsvRow::default()
    }

    fn sep(&mut self) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
    }

    /// Appends a field rendered with its `Display` impl (escaped as needed).
    #[must_use]
    pub fn field(mut self, value: impl std::fmt::Display) -> CsvRow {
        self.sep();
        push_escaped(&mut self.buf, &value.to_string());
        self
    }

    /// Appends a field verbatim, skipping the escaping scan — for numbers
    /// and bools, whose `Display` output can never contain a CSV
    /// metacharacter. Unlike [`CsvRow::field`] this writes straight into
    /// the row buffer with no intermediate allocation (it is the per-cell
    /// path of [`series_csv`]).
    #[must_use]
    pub fn raw(mut self, value: impl std::fmt::Display) -> CsvRow {
        use std::fmt::Write as _;
        self.sep();
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float with fixed `decimals` (matches `{:.N}` formatting),
    /// writing straight into the row buffer.
    #[must_use]
    pub fn fixed(mut self, value: f64, decimals: usize) -> CsvRow {
        use std::fmt::Write as _;
        self.sep();
        let _ = write!(self.buf, "{value:.decimals$}");
        self
    }

    /// Appends an empty field (a missing cell in a padded table).
    #[must_use]
    pub fn empty(mut self) -> CsvRow {
        self.sep();
        self
    }

    /// The finished row, without a trailing newline.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Renders aligned time series as CSV through the shared row builder:
/// first column `slot`, one column per series, shorter series padded with
/// empty cells.
pub fn series_csv(series: &[&TimeSeries]) -> String {
    let mut header = CsvRow::new().field("slot");
    for s in series {
        header = header.field(s.name());
    }
    let mut out = header.finish();
    out.push('\n');
    let rows = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in 0..rows {
        let mut row = CsvRow::new().raw(i);
        for s in series {
            row = match s.values().get(i) {
                Some(v) => row.raw(v),
                None => row.empty(),
            };
        }
        out.push_str(&row.finish());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Consumer of a session's per-slot observations.
///
/// Both hooks default to no-ops, so a sink implements only what it
/// records. `on_frame` fires zero or more times per slot (once per frame
/// whose FIFO service completed during the slot), always before the slot's
/// `on_slot`.
pub trait TelemetrySink {
    /// Called once per simulated slot with the slot's observables.
    fn on_slot(&mut self, outcome: &SlotOutcome) {
        let _ = outcome;
    }

    /// Called for every frame that completed rendering during the slot.
    fn on_frame(&mut self, frame: &FrameLatency) {
        let _ = frame;
    }
}

/// Full per-slot trace: the five series of the paper's Fig. 2 plus every
/// completed frame latency. Memory is O(slots); use [`SummarySink`] when
/// batching many sessions.
#[derive(Debug, Clone)]
pub struct FullTrace {
    /// `Q(τ)` after each slot.
    pub backlog: TimeSeries,
    /// Chosen depth per slot.
    pub depth: TimeSeries,
    /// Quality `p_a(d(τ))` per slot.
    pub quality: TimeSeries,
    /// Injected arrivals per slot.
    pub arrivals: TimeSeries,
    /// Offered service capacity per slot.
    pub service: TimeSeries,
    /// Sojourn times (slots) of completed frames, in completion order.
    pub frame_latencies: Vec<f64>,
}

impl FullTrace {
    /// An empty trace with the legacy series names.
    pub fn new() -> FullTrace {
        FullTrace {
            backlog: TimeSeries::new("queue_backlog"),
            depth: TimeSeries::new("control_action_depth"),
            quality: TimeSeries::new("quality"),
            arrivals: TimeSeries::new("arrivals"),
            service: TimeSeries::new("service"),
            frame_latencies: Vec::new(),
        }
    }

    /// Finalizes the trace into the legacy [`ExperimentResult`], deriving
    /// every metric exactly as the pre-session-runtime closed loop did.
    ///
    /// `queue` is the session's work queue after the final slot (for the
    /// drop/delay accounting that is not derivable from the series alone).
    pub fn into_result(
        self,
        controller: &str,
        warmup: u64,
        queue: &arvis_sim::queue::WorkQueue,
    ) -> ExperimentResult {
        let slots = self.backlog.len() as u64;
        let warm = warmup.min(slots) as usize;
        let mean_quality = self.quality.mean_from(warm).unwrap_or(0.0);
        let mean_backlog = self.backlog.mean_from(warm).unwrap_or(0.0);
        let stable = self.backlog.is_stable((slots / 2).max(2) as usize, 1e-3);
        let switches = self
            .depth
            .values()
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count();
        let depth_switch_rate = if slots > 1 {
            switches as f64 / (slots - 1) as f64
        } else {
            0.0
        };
        let backlog_tail = SummaryStats::from_slice(&self.backlog.values()[warm..]);
        ExperimentResult {
            controller: controller.to_string(),
            dropped_total: queue.total_dropped(),
            littles_delay: queue.littles_law_delay(),
            frame_latency: SummaryStats::from_slice(&self.frame_latencies),
            depth_switch_rate,
            backlog: self.backlog,
            depth: self.depth,
            quality: self.quality,
            arrivals: self.arrivals,
            service: self.service,
            mean_quality,
            mean_backlog,
            backlog_tail,
            stable,
        }
    }
}

impl Default for FullTrace {
    fn default() -> Self {
        FullTrace::new()
    }
}

impl TelemetrySink for FullTrace {
    fn on_slot(&mut self, o: &SlotOutcome) {
        self.backlog.push(o.backlog);
        self.depth.push(f64::from(o.depth));
        self.quality.push(o.quality);
        self.arrivals.push(o.arrival);
        self.service.push(o.service);
    }

    fn on_frame(&mut self, frame: &FrameLatency) {
        self.frame_latencies.push(frame.latency_slots as f64);
    }
}

/// Online least-squares slope of `y` against the sample index — O(1)
/// memory, numerically stable centered (Welford-style) updates.
#[derive(Debug, Clone, Default)]
struct OnlineSlope {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2x: f64,
    cxy: f64,
}

impl OnlineSlope {
    fn observe(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        self.mean_y += (y - self.mean_y) / n;
        self.cxy += dx * (y - self.mean_y);
        self.m2x += dx * (x - self.mean_x);
    }

    fn slope(&self) -> Option<f64> {
        (self.n >= 2 && self.m2x > 0.0).then(|| self.cxy / self.m2x)
    }
}

/// Streaming summary-only sink: O(1) memory per session regardless of the
/// horizon. Means are exact; percentiles are [`P2Quantile`] streaming
/// estimates; the stability verdict is an online least-squares backlog
/// slope — over the final half of the horizon once the run is there (the
/// same window the legacy `TimeSeries::is_stable` regresses over), and
/// over all post-warm-up slots when the sink is inspected mid-run, so a
/// diverging session reads as unstable at any checkpoint.
#[derive(Debug, Clone)]
pub struct SummarySink {
    warmup: u64,
    horizon: u64,
    slots: u64,
    quality_sum_warm: f64,
    backlog_sum_warm: f64,
    warm_count: u64,
    backlog_sum_all: f64,
    served_sum: f64,
    dropped_sum: f64,
    backlog_p95: P2Quantile,
    backlog_p99: P2Quantile,
    latency_count: u64,
    latency_sum: f64,
    latency_p95: P2Quantile,
    latency_p99: P2Quantile,
    last_depth: Option<u8>,
    switches: u64,
    trend_warm: OnlineSlope,
    trend_tail: OnlineSlope,
}

impl SummarySink {
    /// A summary sink for a session with the given warm-up and horizon
    /// (both in slots). The horizon positions the stability test's two
    /// comparison segments (third and fourth quarter of the run).
    pub fn new(warmup: u64, horizon: u64) -> SummarySink {
        SummarySink {
            warmup,
            horizon,
            slots: 0,
            quality_sum_warm: 0.0,
            backlog_sum_warm: 0.0,
            warm_count: 0,
            backlog_sum_all: 0.0,
            served_sum: 0.0,
            dropped_sum: 0.0,
            backlog_p95: P2Quantile::new(0.95),
            backlog_p99: P2Quantile::new(0.99),
            latency_count: 0,
            latency_sum: 0.0,
            latency_p95: P2Quantile::new(0.95),
            latency_p99: P2Quantile::new(0.99),
            last_depth: None,
            switches: 0,
            trend_warm: OnlineSlope::default(),
            trend_tail: OnlineSlope::default(),
        }
    }

    /// Finalizes the accumulators into a [`SessionSummary`].
    pub fn finish(&self) -> SessionSummary {
        let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        let mean_backlog_all = mean(self.backlog_sum_all, self.slots);
        let littles_delay = if self.served_sum > 0.0 && self.slots > 0 {
            Some(mean_backlog_all / (self.served_sum / self.slots as f64))
        } else {
            None
        };
        // Normalized backlog drift: the tail-window regression when the
        // run has reached the final half of its horizon, otherwise the
        // full post-warm-up regression (mid-run checkpoints).
        let stable = match self.trend_tail.slope().or_else(|| self.trend_warm.slope()) {
            None => true,
            Some(slope) => slope / mean_backlog_all.abs().max(1.0) < 1e-3,
        };
        let depth_switch_rate = if self.slots > 1 {
            self.switches as f64 / (self.slots - 1) as f64
        } else {
            0.0
        };
        SessionSummary {
            slots: self.slots,
            mean_quality: mean(self.quality_sum_warm, self.warm_count),
            mean_backlog: mean(self.backlog_sum_warm, self.warm_count),
            backlog_p95: self.backlog_p95.estimate(),
            backlog_p99: self.backlog_p99.estimate(),
            frames_completed: self.latency_count,
            frame_latency_mean: mean(self.latency_sum, self.latency_count),
            frame_latency_p95: self.latency_p95.estimate(),
            frame_latency_p99: self.latency_p99.estimate(),
            littles_delay,
            dropped_total: self.dropped_sum,
            depth_switch_rate,
            stable,
        }
    }
}

impl TelemetrySink for SummarySink {
    fn on_slot(&mut self, o: &SlotOutcome) {
        let n = self.slots;
        if n >= self.warmup {
            self.quality_sum_warm += o.quality;
            self.backlog_sum_warm += o.backlog;
            self.warm_count += 1;
            self.backlog_p95.observe(o.backlog);
            self.backlog_p99.observe(o.backlog);
        }
        self.backlog_sum_all += o.backlog;
        self.served_sum += o.served;
        self.dropped_sum += o.dropped;
        if let Some(last) = self.last_depth {
            if last != o.depth {
                self.switches += 1;
            }
        }
        self.last_depth = Some(o.depth);
        if n >= self.warmup {
            self.trend_warm.observe(n as f64, o.backlog);
        }
        // Exactly the legacy window: the final `horizon/2` samples.
        if n >= self.horizon - self.horizon / 2 {
            self.trend_tail.observe(n as f64, o.backlog);
        }
        self.slots += 1;
    }

    fn on_frame(&mut self, frame: &FrameLatency) {
        let l = frame.latency_slots as f64;
        self.latency_count += 1;
        self.latency_sum += l;
        self.latency_p95.observe(l);
        self.latency_p99.observe(l);
    }
}

/// O(1)-sized summary of one session, as produced by [`SummarySink`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Slots simulated.
    pub slots: u64,
    /// Time-average quality after warm-up (paper Eq. 1).
    pub mean_quality: f64,
    /// Time-average backlog after warm-up (paper Eq. 2 proxy).
    pub mean_backlog: f64,
    /// Streaming 95th-percentile backlog after warm-up.
    pub backlog_p95: f64,
    /// Streaming 99th-percentile backlog after warm-up.
    pub backlog_p99: f64,
    /// Frames whose rendering completed within the horizon.
    pub frames_completed: u64,
    /// Mean per-frame sojourn time (slots).
    pub frame_latency_mean: f64,
    /// Streaming 95th-percentile frame sojourn time (slots).
    pub frame_latency_p95: f64,
    /// Streaming 99th-percentile frame sojourn time (slots).
    pub frame_latency_p99: f64,
    /// Little's-law delay estimate (`None` before anything is served).
    pub littles_delay: Option<f64>,
    /// Total work dropped by a finite queue.
    pub dropped_total: f64,
    /// Fraction of slots whose depth differs from the previous slot's.
    pub depth_switch_rate: f64,
    /// Streaming stability verdict of the backlog tail.
    pub stable: bool,
}

impl SessionSummary {
    /// Header matching [`SessionSummary::csv_row`].
    pub fn csv_header() -> &'static str {
        "session,mean_quality,mean_backlog,backlog_p95,backlog_p99,stable,littles_delay,\
         frame_latency_mean,frame_latency_p95,frame_latency_p99,dropped_total"
    }

    /// One summary line labelled with `session` (an index or name).
    pub fn csv_row(&self, session: impl std::fmt::Display) -> String {
        CsvRow::new()
            .field(session)
            .fixed(self.mean_quality, 6)
            .fixed(self.mean_backlog, 3)
            .fixed(self.backlog_p95, 3)
            .fixed(self.backlog_p99, 3)
            .field(self.stable)
            .fixed(self.littles_delay.unwrap_or(f64::NAN), 3)
            .fixed(self.frame_latency_mean, 3)
            .fixed(self.frame_latency_p95, 3)
            .fixed(self.frame_latency_p99, 3)
            .fixed(self.dropped_total, 1)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_row_matches_legacy_formatting() {
        let row = CsvRow::new()
            .field("proposed")
            .fixed(0.123456789, 6)
            .fixed(1234.5678, 3)
            .field(true)
            .fixed(f64::NAN, 3)
            .fixed(7.0, 1)
            .finish();
        assert_eq!(row, "proposed,0.123457,1234.568,true,NaN,7.0");
    }

    #[test]
    fn csv_escaping_quotes_only_when_needed() {
        let row = CsvRow::new()
            .field("plain")
            .field("with,comma")
            .field("with\"quote")
            .empty()
            .field(42)
            .finish();
        assert_eq!(row, "plain,\"with,comma\",\"with\"\"quote\",,42");
    }

    #[test]
    fn csv_escapes_newlines_and_carriage_returns() {
        // RFC 4180: embedded line breaks force quoting but are preserved
        // verbatim inside the quotes.
        let row = CsvRow::new()
            .field("line1\nline2")
            .field("cr\rhere")
            .field("both\r\nkinds")
            .finish();
        assert_eq!(row, "\"line1\nline2\",\"cr\rhere\",\"both\r\nkinds\"");
    }

    #[test]
    fn csv_quotes_adjacent_to_metacharacters_double_correctly() {
        let row = CsvRow::new().field("a\"b,c\"d").field("\"").finish();
        assert_eq!(row, "\"a\"\"b,c\"\"d\",\"\"\"\"");
    }

    #[test]
    fn csv_nonfinite_floats_pass_through_unquoted() {
        // Rust renders NaN/±inf without CSV metacharacters, so every float
        // path (escaped, raw, fixed) must emit them bare and identically.
        let row = CsvRow::new()
            .field(f64::NAN)
            .field(f64::INFINITY)
            .field(f64::NEG_INFINITY)
            .raw(f64::NAN)
            .fixed(f64::INFINITY, 3)
            .fixed(f64::NEG_INFINITY, 1)
            .fixed(f64::NAN, 6)
            .finish();
        assert_eq!(row, "NaN,inf,-inf,NaN,inf,-inf,NaN");
    }

    #[test]
    fn csv_raw_and_field_agree_on_numbers_and_bools() {
        // `raw` skips the escaping scan; for Display output free of
        // metacharacters the two paths must be byte-identical.
        let a = CsvRow::new()
            .raw(42u64)
            .raw(-7i32)
            .raw(2.5f64)
            .raw(true)
            .finish();
        let b = CsvRow::new()
            .field(42u64)
            .field(-7i32)
            .field(2.5f64)
            .field(true)
            .finish();
        assert_eq!(a, b);
    }

    #[test]
    fn csv_empty_fields_in_every_position() {
        assert_eq!(CsvRow::new().empty().finish(), "");
        assert_eq!(CsvRow::new().empty().empty().empty().finish(), ",,");
        assert_eq!(CsvRow::new().empty().field("x").empty().finish(), ",x,");
        // An explicitly empty string behaves like `empty()`.
        assert_eq!(CsvRow::new().field("").field("y").finish(), ",y");
        // A default row is a fresh row.
        assert_eq!(CsvRow::default().field(1).finish(), "1");
    }

    #[test]
    fn csv_fixed_rounds_like_format_macro() {
        let row = CsvRow::new()
            .fixed(1.005, 2)
            .fixed(-0.0004, 3)
            .fixed(12345.6789, 0)
            .finish();
        assert_eq!(
            row,
            format!("{:.2},{:.3},{:.0}", 1.005, -0.0004, 12345.6789)
        );
    }

    #[test]
    fn series_csv_pads_short_series() {
        let a = TimeSeries::from_values("a", vec![1.0, 2.5]);
        let b = TimeSeries::from_values("b", vec![10.0]);
        assert_eq!(series_csv(&[&a, &b]), "slot,a,b\n0,1,10\n1,2.5,\n");
    }

    #[test]
    fn summary_sink_means_are_exact() {
        let mut sink = SummarySink::new(2, 6);
        for (i, (q, bl)) in [(1.0, 10.0), (0.5, 20.0), (0.25, 30.0), (0.25, 30.0)]
            .iter()
            .enumerate()
        {
            sink.on_slot(&SlotOutcome {
                slot: i as u64,
                depth: 5,
                quality: *q,
                arrival: 1.0,
                service: 2.0,
                served: 1.0,
                dropped: 0.5,
                backlog: *bl,
            });
        }
        let s = sink.finish();
        assert_eq!(s.slots, 4);
        assert!((s.mean_quality - 0.25).abs() < 1e-12, "post-warmup mean");
        assert!((s.mean_backlog - 30.0).abs() < 1e-12);
        assert!((s.dropped_total - 2.0).abs() < 1e-12);
        assert_eq!(s.depth_switch_rate, 0.0);
        // Little: mean backlog over all slots 22.5, throughput 1 → 22.5.
        assert!((s.littles_delay.unwrap() - 22.5).abs() < 1e-12);
    }

    #[test]
    fn summary_sink_detects_divergence() {
        // Linear backlog growth of 10/slot over a 400-slot horizon.
        let mut diverging = SummarySink::new(0, 400);
        let mut flat = SummarySink::new(0, 400);
        for slot in 0..400u64 {
            let base = SlotOutcome {
                slot,
                depth: 5,
                quality: 0.5,
                arrival: 10.0,
                service: 0.0,
                served: 0.0,
                dropped: 0.0,
                backlog: 0.0,
            };
            diverging.on_slot(&SlotOutcome {
                backlog: 10.0 * slot as f64,
                ..base
            });
            flat.on_slot(&SlotOutcome {
                backlog: 100.0,
                ..base
            });
        }
        assert!(!diverging.finish().stable);
        assert!(flat.finish().stable);
    }

    #[test]
    fn summary_sink_flags_divergence_mid_run() {
        // A 2000-slot horizon inspected after only 300 slots: the tail
        // window has no samples yet, so the post-warm-up regression must
        // carry the verdict.
        let mut sink = SummarySink::new(50, 2_000);
        for slot in 0..300u64 {
            sink.on_slot(&SlotOutcome {
                slot,
                depth: 10,
                quality: 1.0,
                arrival: 1_000.0,
                service: 0.0,
                served: 0.0,
                dropped: 0.0,
                backlog: 1_000.0 * slot as f64,
            });
        }
        assert!(!sink.finish().stable, "mid-run divergence must be visible");
        // Same checkpoint on a flat backlog stays stable.
        let mut flat = SummarySink::new(50, 2_000);
        for slot in 0..300u64 {
            flat.on_slot(&SlotOutcome {
                slot,
                depth: 10,
                quality: 1.0,
                arrival: 1_000.0,
                service: 1_000.0,
                served: 1_000.0,
                dropped: 0.0,
                backlog: 1_000.0,
            });
        }
        assert!(flat.finish().stable);
    }

    #[test]
    fn summary_csv_row_shape() {
        let s = SummarySink::new(0, 4).finish();
        let row = s.csv_row(3);
        assert!(row.starts_with("3,"));
        assert_eq!(
            row.split(',').count(),
            SessionSummary::csv_header().split(',').count()
        );
    }
}
