//! `uncoupled_fleet`: the E1–E4 sweep/fleet path of `experiments run`.
//!
//! A ~4 MB scenario of heterogeneous sessions with no uplink goes through
//! parse, content hash and batch build (set-up), then `SessionBatch::run`
//! steps it session-major, one fan-out per run, and `into_summaries`
//! finalizes the telemetry. Each repetition starts again from the bytes.

use arvis_core::scenario::Scenario;
use arvis_core::session::SessionBatch;
use arvis_core::telemetry::{SessionSummary, SummarySink};

use crate::clock::now_ns;
use crate::gen::{fleet_scenario, FleetShape, Size};
use crate::stats::{median, median_secs, quantile, ratio};
use crate::trace::Tracer;
use crate::{check_summaries, closed_loop, same_bits, spread_note, Checker, Outcome};

/// Traced repetitions (each paired with an untraced one).
const TRACE_REPS: u64 = 2;

/// Parse, hash and build: the fleet's set-up.
fn set_up(bytes: &str) -> Result<(Scenario, String, SessionBatch<SummarySink>), String> {
    let scenario = Scenario::from_json_str(bytes).map_err(|e| format!("parse: {e}"))?;
    let hash = scenario.content_hash().map_err(|e| format!("hash: {e}"))?;
    let batch = SessionBatch::summary_only(&scenario);
    Ok((scenario, hash, batch))
}

/// The checks every fleet repetition must pass.
fn check(checker: &mut Checker, shape: &FleetShape, hash: &str, summaries: &[SessionSummary]) {
    checker.check(hash.len() == 64, || format!("content hash {hash:?}"));
    checker.check(summaries.len() == shape.sessions, || {
        format!(
            "{} summaries for {} sessions",
            summaries.len(),
            shape.sessions
        )
    });
    check_summaries(checker, summaries);
    let unstable = summaries.iter().filter(|s| !s.stable).count();
    checker.check(unstable == 0, || format!("{unstable} sessions unstable"));
    for (i, s) in summaries.iter().enumerate() {
        checker.check(s.slots == shape.slots, || {
            format!("session {i} ran {} of {} slots", s.slots, shape.slots)
        });
    }
}

/// The timed run: repetitions of bytes → summaries until `seconds` pass.
pub fn timed(seed: u64, size: Size, seconds: f64) -> Outcome {
    let shape = FleetShape::of(size);
    let bytes = fleet_scenario(seed, &shape);
    let session_slots = shape.sessions as f64 * shape.slots as f64;
    let mut checker = Checker::default();
    let (mut setup_ns, mut rates, mut slot_ms) = (Vec::new(), Vec::new(), Vec::new());
    let peak_rss_mb = closed_loop(seconds, |measured| {
        checker.begin();
        let t0 = now_ns();
        match set_up(&bytes) {
            Err(e) => checker.check(false, || e),
            Ok((_, hash, mut batch)) => {
                let t1 = now_ns();
                batch.run();
                let summaries = batch.into_summaries();
                let t2 = now_ns();
                check(&mut checker, &shape, &hash, &summaries);
                if measured {
                    setup_ns.push(t1 - t0);
                    let step_s = (t2 - t1) as f64 * 1e-9;
                    rates.push(session_slots / step_s);
                    slot_ms.push(step_s * 1e3 / shape.slots as f64);
                }
            }
        }
        checker.end();
    });
    let mut out = Outcome::default();
    checker.finish(&mut out);
    out.set("peak_rss_mb", peak_rss_mb);
    let setup_s: Vec<f64> = setup_ns.iter().map(|&ns| ns as f64 * 1e-9).collect();
    out.set("setup_s", median(&setup_s));
    out.set("session_slots_per_s", median(&rates));
    out.notes.push(spread_note("setup_s", &setup_s));
    out.notes.push(spread_note("session_slots_per_s", &rates));
    out.set("slot_p50_ms", median(&slot_ms));
    out.set("slot_p90_ms", quantile(&slot_ms, 0.9));
    out.notes.push(format!(
        "{} sessions x {} slots, {} B scenario, {} measured repetitions",
        shape.sessions,
        shape.slots,
        bytes.len(),
        rates.len()
    ));
    out
}

/// The traced run: repetitions with a span around each public call, each
/// paired with an untraced one it must match bitwise, and one repetition
/// under `arvis_par::serial_scope` that must match too.
pub fn traced(seed: u64, size: Size, spans_file: Option<&std::path::Path>) -> Outcome {
    let shape = FleetShape::of(size);
    let bytes = fleet_scenario(seed, &shape);
    let mut checker = Checker::default();
    let mut tracer = Tracer::new();
    let (mut untraced_step, mut traced_step, mut run_ns, mut rep_ns) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64);
    let mut reference: Option<Vec<SessionSummary>> = None;
    let mut divergent = 0.0;
    // Warm-up, then untraced/traced pairs.
    for rep in 0..=TRACE_REPS {
        checker.begin();
        match set_up(&bytes) {
            Err(e) => checker.check(false, || e),
            Ok((_, hash, mut batch)) => {
                let t1 = now_ns();
                batch.run();
                let t2 = now_ns();
                let summaries = batch.into_summaries();
                let t3 = now_ns();
                check(&mut checker, &shape, &hash, &summaries);
                if rep > 0 {
                    untraced_step.push(t3 - t1);
                    run_ns.push(t2 - t1);
                }
                reference = Some(summaries);
            }
        }
        checker.end();
        if rep == 0 {
            continue;
        }
        let t0 = now_ns();
        tracer.enter("rep", rep);
        let parsed = tracer.span("scenario.parse", rep, || Scenario::from_json_str(&bytes));
        let Ok(scenario) = parsed else {
            tracer.exit();
            continue;
        };
        let hash = tracer.span("scenario.hash", rep, || scenario.content_hash());
        let mut batch = tracer.span("session.build", rep, || {
            SessionBatch::summary_only(&scenario)
        });
        let s0 = now_ns();
        tracer.span("session.run", rep, || batch.run());
        let summaries = tracer.span("telemetry.finalize", rep, || batch.into_summaries());
        let s1 = now_ns();
        tracer.exit();
        rep_ns += now_ns() - t0;
        traced_step.push(s1 - s0);
        std::hint::black_box(hash.ok());
        if !reference
            .as_ref()
            .is_some_and(|r| same_bits(r.as_slice(), summaries.as_slice()))
        {
            divergent += 1.0;
        }
    }
    // Serial ≡ parallel, and the fan-out's speed-up.
    checker.begin();
    let serial = arvis_par::serial_scope(|| {
        set_up(&bytes).map(|(_, _, mut batch)| {
            let t0 = now_ns();
            batch.run();
            let t1 = now_ns();
            (batch.into_summaries(), t1 - t0)
        })
    });
    let mut serial_run_ns = 0;
    match serial {
        Err(e) => checker.check(false, || e),
        Ok((summaries, ns)) => {
            serial_run_ns = ns;
            let same = reference
                .as_ref()
                .is_some_and(|r| same_bits(r.as_slice(), summaries.as_slice()));
            checker.check(same, || "serial and parallel summaries differ".to_string());
        }
    }
    checker.end();

    let mut out = Outcome::default();
    checker.finish(&mut out);
    for stem in [
        "scenario.parse_ms",
        "scenario.hash_ms",
        "session.build_ms",
        "session.run_ms",
        "telemetry.finalize_ms",
    ] {
        out.set_layer(&tracer, stem);
    }
    out.set_layer(&crate::probe_workers(1_000), "par.workers_us");
    out.set("scenario.bytes", bytes.len() as f64);
    out.set(
        "session.session_slots",
        shape.sessions as f64 * shape.slots as f64,
    );
    let run_default = median_secs(&run_ns);
    out.set(
        "par.run_speedup",
        ratio(serial_run_ns as f64 * 1e-9, run_default),
    );
    out.set(
        "trace.unattributed_frac",
        1.0 - ratio(tracer.covered_ns("rep") as f64, rep_ns as f64),
    );
    out.set(
        "trace.overhead_frac",
        ratio(median_secs(&traced_step), median_secs(&untraced_step)) - 1.0,
    );
    out.set("trace.divergent", divergent);
    if let Some(path) = spans_file {
        match tracer.write_tsv(path) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .notes
                .push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    out
}
