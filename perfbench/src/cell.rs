//! `tenant_cell`: the E5–E8 control plane at cell size.
//!
//! Tenants behind one weighted max-weight uplink, with Poisson joins,
//! geometric lifetimes, compaction, an outage, a brownout, lossy grants and
//! a deferring degradation guard. It is stepped exactly as
//! `uplink::run_contended` steps it — `ChurnPlane::step_summary`, then
//! `SharedUplink::step_slot` — with each slot timed. Live rows stay within
//! one `DEFAULT_SESSIONS_PER_CHUNK` chunk, so the fan-outs never spawn a
//! worker and per-slot fixed costs dominate.

use arvis_core::churn::ChurnPlane;
use arvis_core::fault::{CrashPolicy, FaultPlane};
use arvis_core::scenario::Scenario;
use arvis_core::session::SessionBatch;
use arvis_core::telemetry::{SessionSummary, SummarySink};
use arvis_core::uplink::{SharedUplink, UplinkPolicy, UplinkSlotStats};

use crate::clock::now_ns;
use crate::gen::{cell_scenario, CellShape, Size};
use crate::stats::{median, quantile_sorted, ratio};
use crate::trace::Tracer;
use crate::{check_summaries, closed_loop, same_bits, spread_note, Checker, Outcome};

/// Traced repetitions (each paired with an untraced one).
const TRACE_REPS: u64 = 2;
/// Relative tolerance of the grant bounds (as in `tests/shared_uplink.rs`).
const TOL: f64 = 1e-9;

/// A cell ready to step.
struct Cell {
    batch: SessionBatch<SummarySink>,
    uplink: SharedUplink,
    plane: ChurnPlane,
    tenants: usize,
}

/// Parse, hash and build the batch, the uplink with its fault plane, and
/// the churn plane: the cell's set-up, as `run_contended` builds it.
fn set_up(bytes: &str) -> Result<(Cell, String), String> {
    let scenario = Scenario::from_json_str(bytes).map_err(|e| format!("parse: {e}"))?;
    let hash = scenario.content_hash().map_err(|e| format!("hash: {e}"))?;
    let (Some(spec), Some(plan), Some(churn)) = (
        scenario.uplink.clone(),
        scenario.fault.as_ref(),
        scenario.churn.as_ref(),
    ) else {
        return Err("the cell scenario lacks its uplink, fault plan or churn".to_string());
    };
    let batch = SessionBatch::summary_only(&scenario);
    let uplink = SharedUplink::with_fault(spec, plan, scenario.sessions.len());
    let plane = ChurnPlane::new(churn, &scenario);
    let tenants = scenario.sessions.len();
    Ok((
        Cell {
            batch,
            uplink,
            plane,
            tenants,
        },
        hash,
    ))
}

/// One slot's observable outputs, compared bitwise across runs.
// The fields are read through `Debug`, which `same_bits` compares.
#[allow(dead_code)]
#[derive(Debug)]
struct SlotView {
    slot: u64,
    budget: f64,
    demand: f64,
    granted: f64,
    backlog: f64,
    contended: bool,
    shed: u64,
    lost: f64,
    down: u64,
    grants: Vec<f64>,
}

impl SlotView {
    fn of(stats: &UplinkSlotStats, grants: &[f64]) -> SlotView {
        SlotView {
            slot: stats.slot,
            budget: stats.budget,
            demand: stats.demand,
            granted: stats.granted,
            backlog: stats.backlog,
            contended: stats.contended,
            shed: stats.shed_sessions,
            lost: stats.lost,
            down: stats.down_sessions,
            grants: grants.to_vec(),
        }
    }
}

/// What stepping a cell to its horizon produced.
#[derive(Debug, Default)]
struct Stepped {
    summaries: Vec<SessionSummary>,
    downtime: Vec<u64>,
    /// Per-slot wall time of churn step + uplink step.
    slot_ns: Vec<u64>,
    finalize_ns: u64,
    /// Live session-slots (logical sessions minus down/departed ones).
    live: u64,
    /// Physical rows walked.
    rows: u64,
    /// Logical (stable-id) width summed over slots.
    logical: u64,
    contended: u64,
    shed_slots: u64,
    granted: f64,
    lost: f64,
    joins: u64,
    departures: u64,
    compacted: u64,
    /// Per-slot outputs, when recorded.
    views: Vec<SlotView>,
}

/// The per-slot checks: grants within budget and demand, and every grant
/// finite and non-negative.
fn check_slot(checker: &mut Checker, stats: &UplinkSlotStats, grants: &[f64]) {
    let slot = stats.slot;
    checker.check(stats.granted <= stats.budget * (1.0 + TOL), || {
        format!(
            "slot {slot}: granted {} > budget {}",
            stats.granted, stats.budget
        )
    });
    checker.check(stats.granted <= stats.demand * (1.0 + TOL), || {
        format!(
            "slot {slot}: granted {} > demand {}",
            stats.granted, stats.demand
        )
    });
    for (i, &g) in grants.iter().enumerate() {
        checker.check(g.is_finite() && g >= 0.0, || {
            format!("slot {slot}: grant {i} = {g}")
        });
    }
}

/// Steps `cell` to its horizon the way `run_contended` does, timing each
/// slot, then finalizes the summaries; checks every slot and the result.
fn step(cell: Cell, checker: &mut Checker, record: bool) -> Stepped {
    let Cell {
        mut batch,
        mut uplink,
        mut plane,
        tenants,
    } = cell;
    let mut out = Stepped {
        slot_ns: Vec::with_capacity(batch.horizon() as usize),
        joins: plane.join_schedule().len() as u64,
        departures: plane.departure_schedule().len() as u64,
        ..Stepped::default()
    };
    while !batch.is_done() {
        let t0 = now_ns();
        plane.step_summary(&mut batch, &mut uplink);
        let stats = uplink.step_slot(&mut batch);
        out.slot_ns.push(now_ns() - t0);
        let grants = uplink.last_grants();
        check_slot(checker, &stats, grants);
        let width = batch.logical_len() as u64;
        out.live += width.saturating_sub(stats.down_sessions);
        out.rows += batch.len() as u64;
        out.logical += width;
        out.contended += u64::from(stats.contended);
        out.shed_slots += u64::from(stats.shed_sessions > 0);
        out.granted += stats.granted;
        out.lost += stats.lost;
        if record {
            out.views.push(SlotView::of(&stats, grants));
        }
    }
    out.compacted = plane.compacted_rows();
    out.downtime = batch.downtime();
    let t0 = now_ns();
    out.summaries = batch.into_summaries();
    out.finalize_ns = now_ns() - t0;
    let expected = tenants + out.joins as usize;
    checker.check(out.summaries.len() == expected, || {
        format!(
            "{} summaries for {tenants} tenants + {} joins",
            out.summaries.len(),
            out.joins
        )
    });
    check_summaries(checker, &out.summaries);
    out
}

/// The timed run: repetitions of bytes → summaries until `seconds` pass,
/// every slot timed.
pub fn timed(seed: u64, size: Size, seconds: f64) -> Outcome {
    let shape = CellShape::of(size);
    let bytes = cell_scenario(seed, &shape);
    let mut checker = Checker::default();
    let (mut setup_s, mut rates, mut rep_p50) = (Vec::new(), Vec::new(), Vec::new());
    let mut slot_ms = Vec::new();
    let (mut joins, mut live_frac) = (0, 0.0);
    let peak_rss_mb = closed_loop(seconds, |measured| {
        checker.begin();
        let t0 = now_ns();
        match set_up(&bytes) {
            Err(e) => checker.check(false, || e),
            Ok((cell, hash)) => {
                let t1 = now_ns();
                checker.check(hash.len() == 64, || format!("content hash {hash:?}"));
                let stepped = step(cell, &mut checker, false);
                if measured {
                    setup_s.push((t1 - t0) as f64 * 1e-9);
                    let step_ns = stepped.slot_ns.iter().sum::<u64>() + stepped.finalize_ns;
                    rates.push(stepped.live as f64 / (step_ns as f64 * 1e-9));
                    let rep_ms: Vec<f64> =
                        stepped.slot_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
                    rep_p50.push(median(&rep_ms));
                    slot_ms.extend(rep_ms);
                    joins = stepped.joins;
                    live_frac = ratio(stepped.live as f64, stepped.rows as f64);
                }
            }
        }
        checker.end();
    });
    let mut out = Outcome::default();
    checker.finish(&mut out);
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("setup_s", median(&setup_s));
    out.set("session_slots_per_s", median(&rates));
    slot_ms.sort_by(f64::total_cmp);
    out.set("slot_p50_ms", quantile_sorted(&slot_ms, 0.5));
    out.set("slot_p90_ms", quantile_sorted(&slot_ms, 0.9));
    out.notes.push(format!(
        "slot_p99_ms {} ms (n={}, not registered)",
        crate::fmt_value(quantile_sorted(&slot_ms, 0.99)),
        slot_ms.len()
    ));
    out.notes.push(spread_note("setup_s", &setup_s));
    out.notes.push(spread_note("session_slots_per_s", &rates));
    out.notes
        .push(spread_note("repetition slot_p50_ms", &rep_p50));
    out.notes.push(format!(
        "{} tenants + {joins} joins x {} slots, live rows {:.3} of rows walked, {} measured repetitions",
        shape.tenants,
        shape.slots,
        live_frac,
        rates.len()
    ));
    out
}

/// The program's order-invariant aggregate (`invariant_sum` in
/// `core::uplink`, not public): the values sorted by `total_cmp`, then
/// summed in order.
fn sorted_sum(values: &[f64], sorted: &mut Vec<f64>) -> f64 {
    sorted.clear();
    sorted.extend_from_slice(values);
    sorted.sort_unstable_by(f64::total_cmp);
    let sum: f64 = sorted.iter().sum();
    sum
}

/// What the re-driven run produced.
struct Redriven {
    views: Vec<SlotView>,
    summaries: Vec<SessionSummary>,
    downtime: Vec<u64>,
    /// Wall time of the re-driven slot loop.
    loop_ns: u64,
}

/// Re-drives the cell from its bytes through the public calls
/// `run_contended` makes — the churn schedules with `crash_session`,
/// `spawn_at` and `compact`; `budget_at`; the `FaultPlane` methods;
/// `fill_backlogs`; `fill_demands`; `UplinkPolicy::allocate`;
/// `step_slot_granted` — with a span around each.
fn redrive(bytes: &str, tracer: &mut Tracer, rep: u64) -> Result<Redriven, String> {
    let g0 = rep << 32;
    tracer.enter("setup", g0);
    let parsed = tracer.span("scenario.parse", g0, || Scenario::from_json_str(bytes));
    let scenario = parsed.map_err(|e| {
        tracer.exit();
        format!("parse: {e}")
    })?;
    let hash = tracer.span("scenario.hash", g0, || scenario.content_hash());
    std::hint::black_box(hash.ok());
    let built = tracer.span("session.build", g0, || {
        let (Some(spec), Some(plan), Some(churn)) = (
            scenario.uplink.clone(),
            scenario.fault.as_ref(),
            scenario.churn.as_ref(),
        ) else {
            return None;
        };
        let batch = SessionBatch::summary_only(&scenario);
        let fault = FaultPlane::new(plan, scenario.sessions.len());
        let plane = ChurnPlane::new(churn, &scenario);
        Some((batch, spec, fault, plane, churn.weight, churn.compact))
    });
    tracer.exit();
    let (mut batch, spec, mut fault, plane, join_weight, compact) =
        built.ok_or("the cell scenario lacks its uplink, fault plan or churn")?;
    let mut policy = spec.policy.clone();
    let budgets = spec.budget.clone();
    let horizon = scenario.slots;
    let (joins, deaths) = (plane.join_schedule(), plane.departure_schedule());
    let (mut ji, mut di) = (0, 0);
    let (mut backlogs, mut demands, mut grants, mut sorted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut views = Vec::with_capacity(horizon as usize);
    let t0 = now_ns();
    while !batch.is_done() {
        let slot = batch.slot();
        let g = g0 | slot;
        tracer.enter("slot", g);
        tracer.span("churn.step", g, || {
            while deaths.get(di).is_some_and(|&(at, _)| at <= slot) {
                batch.crash_session(deaths[di].1 as usize, CrashPolicy::Permanent, 0);
                di += 1;
            }
            while joins.get(ji).is_some_and(|(at, _)| *at <= slot) {
                let joiner = &joins[ji].1;
                batch.spawn_at(joiner, SummarySink::new(joiner.warmup, horizon - slot));
                if let (UplinkPolicy::WeightedMaxWeight { weights }, Some(w)) =
                    (&mut policy, join_weight)
                {
                    weights.push(w);
                }
                ji += 1;
            }
            if compact {
                let dead = batch.dead_rows();
                if dead >= 64 || dead * 4 >= batch.len().max(1) {
                    batch.compact();
                }
            }
        });
        let base = tracer.span("uplink.budget", g, || budgets.budget_at(slot));
        let budget = tracer.span("fault.plane", g, || {
            let budget = fault.effective_budget(slot, base);
            fault.apply_crashes(slot, &mut batch);
            budget
        });
        tracer.span("session.fill_backlogs", g, || {
            batch.fill_backlogs(&mut backlogs)
        });
        tracer.span("session.fill_demands", g, || {
            batch.fill_demands(&mut demands)
        });
        let (backlog, offered) = tracer.span("uplink.sums", g, || {
            (
                sorted_sum(&backlogs, &mut sorted),
                sorted_sum(&demands, &mut sorted),
            )
        });
        let shed = tracer.span("fault.plane", g, || {
            let weights = match &policy {
                UplinkPolicy::WeightedMaxWeight { weights } => Some(weights.as_slice()),
                _ => None,
            };
            fault.shed(backlog, &mut demands, weights)
        });
        tracer.span("uplink.allocate", g, || {
            policy.allocate(budget, &backlogs, &demands, &mut grants)
        });
        let lost = tracer.span("fault.plane", g, || fault.apply_loss(&mut grants));
        tracer.span("session.step_granted", g, || {
            batch.step_slot_granted(&grants)
        });
        let granted = tracer.span("uplink.sums", g, || sorted_sum(&grants, &mut sorted));
        let contended = offered > budget;
        tracer.span("fault.plane", g, || fault.observe_contention(contended));
        let down = batch.down_sessions();
        tracer.exit();
        views.push(SlotView {
            slot,
            budget,
            demand: offered,
            granted,
            backlog,
            contended,
            shed,
            lost,
            down,
            grants: grants.clone(),
        });
    }
    let loop_ns = now_ns() - t0;
    let downtime = batch.downtime();
    let summaries = tracer.span("telemetry.finalize", g0, || batch.into_summaries());
    Ok(Redriven {
        views,
        summaries,
        downtime,
        loop_ns,
    })
}

/// The traced run: untraced reference repetitions, each paired with a
/// re-driven one that must reproduce it bitwise, one reference under
/// `arvis_par::serial_scope` that must match too, and a probe of
/// `arvis_par::workers()`.
pub fn traced(seed: u64, size: Size, spans_file: Option<&std::path::Path>) -> Outcome {
    let shape = CellShape::of(size);
    let bytes = cell_scenario(seed, &shape);
    let mut checker = Checker::default();
    let mut tracer = Tracer::new();
    let (mut overhead, mut loop_ns) = (Vec::new(), 0u64);
    let mut reference = Stepped::default();
    let (mut divergent, mut slot_speedup) = (0.0, 0.0);
    for rep in 0..=TRACE_REPS {
        checker.begin();
        match set_up(&bytes) {
            Err(e) => checker.check(false, || e),
            Ok((cell, _)) => reference = step(cell, &mut checker, rep > 0),
        }
        checker.end();
        if rep == 0 {
            continue;
        }
        let reference_ns = reference.slot_ns.iter().sum::<u64>();
        if rep == 1 {
            checker.begin();
            let serial = arvis_par::serial_scope(|| {
                let mut serial_checker = Checker::default();
                set_up(&bytes).map(|(cell, _)| step(cell, &mut serial_checker, true))
            });
            match serial {
                Err(e) => checker.check(false, || e),
                Ok(serial) => {
                    let same = same_bits(&reference.views, &serial.views)
                        && same_bits(&reference.summaries, &serial.summaries)
                        && same_bits(&reference.downtime, &serial.downtime);
                    checker.check(same, || "serial and parallel cell runs differ".to_string());
                    let serial_ns = serial.slot_ns.iter().sum::<u64>();
                    slot_speedup = ratio(serial_ns as f64, reference_ns as f64);
                }
            }
            checker.end();
        }
        match redrive(&bytes, &mut tracer, rep) {
            Err(_) => divergent += 1.0,
            Ok(r) => {
                let same = same_bits(&reference.views, &r.views)
                    && same_bits(&reference.summaries, &r.summaries)
                    && same_bits(&reference.downtime, &r.downtime);
                if !same {
                    divergent += 1.0;
                }
                loop_ns += r.loop_ns;
                overhead.push(ratio(r.loop_ns as f64, reference_ns as f64) - 1.0);
            }
        }
    }

    let mut out = Outcome::default();
    checker.finish(&mut out);
    for stem in [
        "scenario.parse_ms",
        "scenario.hash_ms",
        "session.build_ms",
        "telemetry.finalize_ms",
        "churn.step_us",
        "uplink.budget_us",
        "fault.plane_us",
        "session.fill_backlogs_us",
        "session.fill_demands_us",
        "uplink.sums_us",
        "uplink.allocate_us",
        "session.step_granted_us",
    ] {
        out.set_layer(&tracer, stem);
    }
    out.set_layer(&crate::probe_workers(1_000), "par.workers_us");
    let slots = reference.slot_ns.len() as f64;
    out.set("scenario.bytes", bytes.len() as f64);
    out.set("session.session_slots", reference.live as f64);
    out.set(
        "session.live_row_frac",
        ratio(reference.live as f64, reference.rows as f64),
    );
    out.set(
        "session.logical_width_mean",
        ratio(reference.logical as f64, slots),
    );
    out.set(
        "uplink.contended_frac",
        ratio(reference.contended as f64, slots),
    );
    out.set("fault.shed_slots", reference.shed_slots as f64);
    out.set("fault.lost_frac", ratio(reference.lost, reference.granted));
    out.set("churn.joins", reference.joins as f64);
    out.set("churn.departures", reference.departures as f64);
    out.set("churn.compacted_rows", reference.compacted as f64);
    out.set("par.slot_speedup", slot_speedup);
    out.set(
        "trace.unattributed_frac",
        1.0 - ratio(tracer.covered_ns("slot") as f64, loop_ns as f64),
    );
    out.set("trace.overhead_frac", median(&overhead));
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
