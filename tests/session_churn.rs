//! Session churn conformance: open-loop joins, departures, and SoA slot
//! compaction end to end.
//!
//! 1. **Churned replay** — the schema-3 E8 golden (Poisson joins onto a
//!    weighted uplink, geometric lifetimes, compaction on) replays
//!    bit-identically from its own JSON file, mid-run joins included.
//! 2. **Compaction ≡ dead-row skipping** — the same churned scenario with
//!    `compact` on and off produces bitwise-equal per-session summaries,
//!    downtime, uplink aggregates, per-slot stats, and CSV bytes, while
//!    the compacting run really does evict rows.
//! 3. **Join ≡ fresh session** — a session joining at slot `k` is bitwise
//!    a brand-new session run over the residual horizon (the local-clock
//!    contract, the cold-restart idiom extended to joins).
//! 4. **Zero churn ≡ pre-churn path** — an absent spec, an empty spec, and
//!    a spec whose schedule happens to be empty all run bitwise
//!    identically.
//! 5. **Schedule purity** — the precomputed join/departure schedule is a
//!    pure function of the spec (seeded property loop), so stepping order,
//!    chunking, and thread count cannot reach it.
//! 6. **Chunk invariance** — a churned run is bitwise identical across SoA
//!    chunk sizes.
//! 7. **Partial-horizon hygiene** — sessions departing before warm-up
//!    still summarize to finite fields; the only `NaN` the CSV may render
//!    is the documented `littles_delay` placeholder for frameless rows.
//! 8. **Churn soak** — 200 seeded random churn specs over random small
//!    fleets: exact scenario-file round-trips, replay determinism, and the
//!    compaction differential on every draw.
//!
//! This suite also runs on one worker (CI's `taskset -c 0` pass): churn
//! determinism must not depend on the parallel fan-out.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arvis::core::churn::{ChurnArrivalSpec, ChurnPlane, ChurnSpec, LifetimeSpec};
use arvis::core::experiment::{ExperimentConfig, ServiceSpec};
use arvis::core::json::to_string;
use arvis::core::ledger::RunRecord;
use arvis::core::scenario::{ControllerSpec, Scenario, SessionSpec};
use arvis::core::session::SessionBatch;
use arvis::core::telemetry::SessionSummary;
use arvis::core::uplink::{run_contended, ContendedRun, SharedUplink, UplinkPolicy, UplinkSpec};
use arvis::quality::DepthProfile;
use arvis::sim::rng::child_seed;
use arvis_bench::presets::scenario_preset;

fn profile() -> DepthProfile {
    DepthProfile::from_parts(
        5,
        vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
        vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    )
}

/// A small heterogeneous fleet of proposed controllers with jittered
/// service (so joins and departures must replay seeded processes, not
/// constants).
fn fleet(sessions: usize, slots: u64, seed: u64) -> Scenario {
    let cfg = ExperimentConfig::new(profile(), 2_000.0, slots).with_controller_v(1e7);
    let mut scenario = Scenario::new(slots);
    for i in 0..sessions {
        let mut spec = SessionSpec::from_config(&cfg, ControllerSpec::Proposed { v: 1e7 });
        spec.service = ServiceSpec::Jittered {
            rate: 1_400.0 + 350.0 * i as f64,
            sigma: 0.12,
        };
        spec.seed = child_seed(seed, i as u64);
        spec.frame_cap = Some(4_096);
        scenario.sessions.push(spec);
    }
    scenario
}

/// The joiner template every churn test clones: constant service so a
/// joiner's trajectory depends only on its own seeded stream.
fn template(seed: u64) -> SessionSpec {
    let cfg = ExperimentConfig::new(profile(), 2_000.0, 1).with_controller_v(1e7);
    let mut spec = SessionSpec::from_config(&cfg, ControllerSpec::Proposed { v: 1e7 });
    spec.service = ServiceSpec::Jittered {
        rate: 1_600.0,
        sigma: 0.1,
    };
    spec.seed = seed;
    spec.frame_cap = Some(4_096);
    spec
}

/// Bitwise equality of two per-session summaries (floats via `to_bits`).
fn assert_summaries_bit_identical(a: &SessionSummary, b: &SessionSummary, what: &str) {
    assert_eq!(a.slots, b.slots, "{what}: slots");
    let bits = [
        ("mean_quality", a.mean_quality, b.mean_quality),
        ("mean_backlog", a.mean_backlog, b.mean_backlog),
        ("backlog_p95", a.backlog_p95, b.backlog_p95),
        ("backlog_p99", a.backlog_p99, b.backlog_p99),
        (
            "frame_latency_mean",
            a.frame_latency_mean,
            b.frame_latency_mean,
        ),
        (
            "frame_latency_p95",
            a.frame_latency_p95,
            b.frame_latency_p95,
        ),
        (
            "frame_latency_p99",
            a.frame_latency_p99,
            b.frame_latency_p99,
        ),
        ("dropped_total", a.dropped_total, b.dropped_total),
        (
            "depth_switch_rate",
            a.depth_switch_rate,
            b.depth_switch_rate,
        ),
    ];
    for (field, x, y) in bits {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {field} {x} vs {y}");
    }
    assert_eq!(a.frames_completed, b.frames_completed, "{what}: frames");
    assert_eq!(
        a.littles_delay.map(f64::to_bits),
        b.littles_delay.map(f64::to_bits),
        "{what}: littles_delay"
    );
    assert_eq!(a.stable, b.stable, "{what}: stable");
}

/// Bitwise equality of two whole contended runs, uplink aggregates and
/// downtime included.
fn assert_runs_bit_identical(a: &ContendedRun, b: &ContendedRun, what: &str) {
    assert_eq!(a.summaries.len(), b.summaries.len(), "{what}: sessions");
    for (i, (x, y)) in a.summaries.iter().zip(&b.summaries).enumerate() {
        assert_summaries_bit_identical(x, y, &format!("{what}: session {i}"));
    }
    assert_eq!(a.downtime, b.downtime, "{what}: downtime");
    let (ua, ub) = (&a.uplink, &b.uplink);
    assert_eq!(ua.slots, ub.slots, "{what}: uplink slots");
    assert_eq!(ua.contended_slots, ub.contended_slots, "{what}: contended");
    assert_eq!(ua.shed_slots, ub.shed_slots, "{what}: shed_slots");
    assert_eq!(
        ua.deferred_session_slots, ub.deferred_session_slots,
        "{what}: deferred_session_slots"
    );
    assert_eq!(ua.outage_slots, ub.outage_slots, "{what}: outage_slots");
    assert_eq!(
        ua.down_session_slots, ub.down_session_slots,
        "{what}: down_session_slots"
    );
    let floats = [
        ("mean_budget", ua.mean_budget, ub.mean_budget),
        ("mean_demand", ua.mean_demand, ub.mean_demand),
        ("mean_granted", ua.mean_granted, ub.mean_granted),
        ("mean_backlog", ua.mean_backlog, ub.mean_backlog),
        ("peak_backlog", ua.peak_backlog, ub.peak_backlog),
        ("lost_total", ua.lost_total, ub.lost_total),
    ];
    for (field, x, y) in floats {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: uplink {field} {x} vs {y}"
        );
    }
}

/// A churned scenario deliberately complementary to the E8 golden: trace
/// arrivals (not Poisson), uniform lifetimes (not geometric), a plain
/// max-weight-backlog uplink (not weighted).
fn churned_scenario(compact: bool) -> Scenario {
    let mut scenario = fleet(4, 600, 0xC4A);
    let demand: f64 = scenario
        .sessions
        .iter()
        .map(|s| s.service.mean_rate())
        .sum();
    scenario = scenario.with_uplink(UplinkSpec::new(
        0.8 * demand,
        UplinkPolicy::MaxWeightBacklog,
    ));
    let churn = ChurnSpec::new()
        .with_arrivals(
            ChurnArrivalSpec::Trace {
                counts: vec![0, 0, 0, 0, 0, 0, 0, 1],
            },
            template(0xC4A7E),
            9,
        )
        .with_lifetime(LifetimeSpec::Uniform {
            min: 40,
            max: 320,
            seed: 0xC4A11F,
        })
        .with_compaction(compact);
    scenario.with_churn(churn)
}

// ---------------------------------------------------------------------------
// 1. Churned replay from file
// ---------------------------------------------------------------------------

#[test]
fn churned_golden_replays_bit_identically_from_file() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("e8_churn.json");
    let file = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with `experiments emit all --dir scenarios`)",
            path.display()
        )
    });
    let from_file = Scenario::from_json_str(&file).expect("parse e8 golden");
    let from_rust = scenario_preset("e8_churn").expect("e8 preset");

    // The full record surface (summaries + uplink + downtime), canonical
    // bytes compared so every float survived the file round-trip exactly.
    let rec_file = RunRecord::replay("e8_churn", &from_file).expect("replay from file");
    let rec_rust = RunRecord::replay("e8_churn", &from_rust).expect("replay from preset");
    assert_eq!(
        to_string(&rec_file).unwrap(),
        to_string(&rec_rust).unwrap(),
        "file and in-Rust replays must agree byte for byte"
    );
    assert_eq!(rec_file.scenario_schema, 3, "E8 is a schema-3 scenario");

    // The churn actually happened: joiners beyond the initial fleet, and
    // departures accruing downtime.
    let run = run_contended(&from_file);
    assert!(
        run.summaries.len() > from_file.sessions.len(),
        "E8 must record mid-run joins ({} sessions, {} initial)",
        run.summaries.len(),
        from_file.sessions.len()
    );
    assert!(
        run.downtime.iter().any(|&d| d > 0),
        "E8 must record departures (all downtime zero)"
    );
    // And replaying the parsed scenario again is bit-identical.
    assert_runs_bit_identical(&run, &run_contended(&from_file), "e8 replay determinism");
}

// ---------------------------------------------------------------------------
// 2. Compaction is bitwise invisible
// ---------------------------------------------------------------------------

#[test]
fn compaction_is_bitwise_invisible_in_every_output() {
    let on = churned_scenario(true);
    let off = churned_scenario(false);
    let run_on = run_contended(&on);
    let run_off = run_contended(&off);
    assert_runs_bit_identical(&run_on, &run_off, "compaction differential");
    assert_eq!(
        run_on.to_csv(),
        run_off.to_csv(),
        "CSV bytes must not depend on compaction"
    );

    // Drive both by hand to compare every per-slot uplink stat and to
    // prove the compacting run really evicted rows (otherwise this test
    // would pass vacuously).
    let drive = |scenario: &Scenario| {
        let churn = scenario.churn.as_ref().expect("churned scenario");
        let mut plane = ChurnPlane::new(churn, scenario);
        let mut batch = SessionBatch::summary_only(scenario);
        let mut uplink = SharedUplink::new(scenario.uplink.clone().unwrap());
        let mut stats = Vec::new();
        while !batch.is_done() {
            plane.step_summary(&mut batch, &mut uplink);
            let s = uplink.step_slot(&mut batch);
            stats.push((
                s.slot,
                s.budget.to_bits(),
                s.demand.to_bits(),
                s.granted.to_bits(),
                s.backlog.to_bits(),
                s.contended,
                s.shed_sessions,
                s.lost.to_bits(),
                s.down_sessions,
            ));
        }
        (
            stats,
            plane.compacted_rows(),
            batch.len(),
            batch.logical_len(),
        )
    };
    let (stats_on, compacted_on, phys_on, logical_on) = drive(&on);
    let (stats_off, compacted_off, phys_off, logical_off) = drive(&off);
    assert_eq!(stats_on, stats_off, "per-slot uplink stats must match");
    assert!(
        compacted_on > 0,
        "the compacting run must actually evict rows"
    );
    assert_eq!(compacted_off, 0, "the non-compacting run must not");
    assert_eq!(
        logical_on, logical_off,
        "the logical session count is compaction-independent"
    );
    assert!(
        phys_on < phys_off,
        "compaction must shrink the physical SoA ({phys_on} vs {phys_off} rows)"
    );
}

// ---------------------------------------------------------------------------
// 3. A join is a fresh session over the residual horizon
// ---------------------------------------------------------------------------

#[test]
fn joiner_is_bitwise_a_fresh_session_over_the_residual_horizon() {
    let (slots, k) = (400u64, 137u64);
    let mut scenario = fleet(2, slots, 0x101A);
    // Unconstrained: every demand granted, so the joiner's trajectory is
    // exactly what it would be standing alone.
    scenario = scenario.with_uplink(UplinkSpec::unconstrained());
    let tpl = template(0x7E44);
    let mut counts = vec![0u64; k as usize];
    counts.push(1);
    let scenario = scenario.with_churn(ChurnSpec::new().with_arrivals(
        ChurnArrivalSpec::Trace { counts },
        tpl.clone(),
        1,
    ));

    let run = run_contended(&scenario);
    assert_eq!(
        run.summaries.len(),
        3,
        "two initial sessions plus the joiner"
    );
    let joiner = &run.summaries[2];
    assert_eq!(
        joiner.slots,
        slots - k,
        "joiner covers the residual horizon"
    );
    assert_eq!(run.downtime[2], 0, "a live joiner accrues no downtime");

    // The fresh twin: the same spec with the joiner's decorrelated seed,
    // run uncoupled over `slots - k` slots.
    let mut fresh_spec = tpl;
    fresh_spec.seed = child_seed(fresh_spec.seed, 0);
    let fresh = Scenario::new(slots - k).with_session(fresh_spec);
    let mut batch = SessionBatch::summary_only(&fresh);
    batch.run();
    let fresh_summary = batch.into_summaries().remove(0);
    assert_summaries_bit_identical(joiner, &fresh_summary, "join-at-k vs fresh");
}

// ---------------------------------------------------------------------------
// 4. Zero churn is the pre-churn code path
// ---------------------------------------------------------------------------

#[test]
fn zero_churn_specs_take_the_pre_churn_code_path_bitwise() {
    let base = {
        let mut s = fleet(3, 500, 0x2E40);
        let demand: f64 = s.sessions.iter().map(|x| x.service.mean_rate()).sum();
        s = s.with_uplink(UplinkSpec::new(
            0.75 * demand,
            UplinkPolicy::ProportionalShare,
        ));
        s
    };
    let baseline = run_contended(&base);

    // An empty spec is filtered out before a plane is ever built.
    let empty = base.clone().with_churn(ChurnSpec::new());
    assert_runs_bit_identical(&baseline, &run_contended(&empty), "empty churn spec");

    // A spec whose *schedule* is empty (trace of zeros, nobody departs)
    // routes through the churn stepping loop and must still be bitwise
    // the plain `SharedUplink::run`.
    let idle = base.clone().with_churn(ChurnSpec::new().with_arrivals(
        ChurnArrivalSpec::Trace { counts: vec![0] },
        template(0x2E41),
        1,
    ));
    assert!(!idle.churn.as_ref().unwrap().is_empty());
    assert_runs_bit_identical(&baseline, &run_contended(&idle), "idle churn schedule");
}

// ---------------------------------------------------------------------------
// 5. Schedule purity (seeded property loop)
// ---------------------------------------------------------------------------

/// A random-but-valid churn spec paired with a compatible scenario.
fn random_churned_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = rng.gen_range(2usize..5);
    let slots = rng.gen_range(96u64..160);
    let mut scenario = fleet(sessions, slots, rng.gen());
    let demand: f64 = scenario
        .sessions
        .iter()
        .map(|s| s.service.mean_rate())
        .sum();
    let weighted = rng.gen_bool(0.3);
    let policy = if weighted {
        UplinkPolicy::WeightedMaxWeight {
            weights: (0..sessions).map(|_| rng.gen_range(0.5..4.0)).collect(),
        }
    } else if rng.gen_bool(0.5) {
        UplinkPolicy::ProportionalShare
    } else {
        UplinkPolicy::MaxWeightBacklog
    };
    scenario = scenario.with_uplink(UplinkSpec::new(rng.gen_range(0.6..1.1) * demand, policy));

    let mut churn = ChurnSpec::new();
    let joins = rng.gen_bool(0.75);
    if joins {
        let arrivals = match rng.gen_range(0u8..3) {
            0 => ChurnArrivalSpec::Poisson {
                lambda: rng.gen_range(0.0..0.15),
                seed: rng.gen(),
            },
            1 => ChurnArrivalSpec::Mmpp2 {
                lambda_low: rng.gen_range(0.0..0.05),
                lambda_high: rng.gen_range(0.1..0.6),
                switch_up: rng.gen_range(0.0..0.3),
                switch_down: rng.gen_range(0.0..0.3),
                seed: rng.gen(),
            },
            _ => ChurnArrivalSpec::Trace {
                counts: (0..rng.gen_range(1usize..24))
                    .map(|_| u64::from(rng.gen_bool(0.1)))
                    .collect(),
            },
        };
        churn = churn.with_arrivals(arrivals, template(rng.gen()), rng.gen_range(1u64..8));
        if weighted {
            churn = churn.with_weight(rng.gen_range(0.5..4.0));
        }
    }
    if rng.gen_bool(0.75) || !joins {
        let lifetime = match rng.gen_range(0u8..3) {
            0 => LifetimeSpec::Fixed {
                slots: rng.gen_range(1u64..200),
            },
            1 => LifetimeSpec::Geometric {
                mean: rng.gen_range(1.0..120.0),
                seed: rng.gen(),
            },
            _ => {
                let min = rng.gen_range(1u64..60);
                LifetimeSpec::Uniform {
                    min,
                    max: min + rng.gen_range(0u64..100),
                    seed: rng.gen(),
                }
            }
        };
        churn = churn.with_lifetime(lifetime);
    }
    scenario.with_churn(churn.with_compaction(rng.gen_bool(0.5)))
}

#[test]
fn churn_schedules_are_pure_functions_of_the_spec() {
    for seed in 0..64u64 {
        let scenario = random_churned_scenario(seed);
        let churn = scenario.churn.as_ref().unwrap();
        let a = ChurnPlane::new(churn, &scenario);
        let b = ChurnPlane::new(churn, &scenario);
        let joins_a: Vec<(u64, u64)> = a
            .join_schedule()
            .iter()
            .map(|(slot, spec)| (*slot, spec.seed))
            .collect();
        let joins_b: Vec<(u64, u64)> = b
            .join_schedule()
            .iter()
            .map(|(slot, spec)| (*slot, spec.seed))
            .collect();
        assert_eq!(joins_a, joins_b, "seed {seed}: join schedule");
        assert_eq!(
            a.departure_schedule(),
            b.departure_schedule(),
            "seed {seed}: departure schedule"
        );
        assert!(
            joins_a.len() as u64 <= churn.max_joins,
            "seed {seed}: max_joins respected"
        );
        assert!(
            joins_a.windows(2).all(|w| w[0].0 <= w[1].0),
            "seed {seed}: joins sorted by slot"
        );
        assert!(
            a.departure_schedule().windows(2).all(|w| w[0] <= w[1]),
            "seed {seed}: departures sorted"
        );
        assert!(
            a.departure_schedule()
                .iter()
                .all(|&(at, _)| at < scenario.slots),
            "seed {seed}: departures inside the horizon"
        );
        // Joiner seeds are the decorrelated child streams, in join order.
        if let Some(tpl) = &churn.template {
            for (j, &(_, seed_j)) in joins_a.iter().enumerate() {
                assert_eq!(
                    seed_j,
                    child_seed(tpl.seed, j as u64),
                    "seed {seed}: joiner {j} seed"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 6. Chunk invariance
// ---------------------------------------------------------------------------

#[test]
fn churned_runs_are_invariant_to_soa_chunk_size() {
    let scenario = churned_scenario(true);
    let drive = |chunk: Option<usize>| {
        let churn = scenario.churn.as_ref().unwrap();
        let mut plane = ChurnPlane::new(churn, &scenario);
        let mut batch = SessionBatch::summary_only(&scenario);
        if let Some(c) = chunk {
            batch = batch.with_chunk_size(c);
        }
        let mut uplink = SharedUplink::new(scenario.uplink.clone().unwrap());
        while !batch.is_done() {
            plane.step_summary(&mut batch, &mut uplink);
            uplink.step_slot(&mut batch);
        }
        (batch.downtime(), batch.into_summaries())
    };
    let (downtime_default, summaries_default) = drive(None);
    for chunk in [1usize, 3, 7] {
        let (downtime, summaries) = drive(Some(chunk));
        assert_eq!(downtime, downtime_default, "chunk {chunk}: downtime");
        assert_eq!(summaries.len(), summaries_default.len(), "chunk {chunk}");
        for (i, (a, b)) in summaries.iter().zip(&summaries_default).enumerate() {
            assert_summaries_bit_identical(a, b, &format!("chunk {chunk} session {i}"));
        }
    }
}

// ---------------------------------------------------------------------------
// 7. Partial-horizon summaries stay finite
// ---------------------------------------------------------------------------

#[test]
fn early_departures_summarize_finite_with_only_the_documented_nan() {
    // Everybody departs at slot 1 — before the 16-slot warm-up, so every
    // warm aggregate summarizes an *empty* window. The pinned behavior:
    // means are 0.0 (not NaN), percentiles 0.0, and `littles_delay` is
    // `None`, which the CSV renders as the documented `NaN` placeholder.
    let mut scenario = fleet(3, 200, 0xDEAD);
    for s in &mut scenario.sessions {
        s.warmup = 16;
    }
    let demand: f64 = scenario
        .sessions
        .iter()
        .map(|s| s.service.mean_rate())
        .sum();
    scenario = scenario.with_uplink(UplinkSpec::new(
        0.8 * demand,
        UplinkPolicy::ProportionalShare,
    ));
    let scenario =
        scenario.with_churn(ChurnSpec::new().with_lifetime(LifetimeSpec::Fixed { slots: 1 }));
    let run = run_contended(&scenario);
    assert_eq!(run.summaries.len(), 3);
    for (i, s) in run.summaries.iter().enumerate() {
        for (field, v) in [
            ("mean_quality", s.mean_quality),
            ("mean_backlog", s.mean_backlog),
            ("backlog_p95", s.backlog_p95),
            ("backlog_p99", s.backlog_p99),
            ("frame_latency_mean", s.frame_latency_mean),
            ("frame_latency_p95", s.frame_latency_p95),
            ("frame_latency_p99", s.frame_latency_p99),
            ("dropped_total", s.dropped_total),
            ("depth_switch_rate", s.depth_switch_rate),
        ] {
            assert!(v.is_finite(), "session {i}: {field} = {v}");
        }
        if let Some(d) = s.littles_delay {
            assert!(d.is_finite(), "session {i}: littles_delay = {d}");
        }
        assert_eq!(
            run.downtime[i],
            scenario.slots - 1,
            "session {i}: downtime covers every slot after the departure"
        );
    }
    // The record codec (the ledger's hard finite gate) must accept it.
    RunRecord::replay("early_departures", &scenario).expect("record stays finite");
    // The only NaNs in the CSV are littles_delay placeholders of rows
    // that completed no frames.
    let csv = run.to_csv();
    let frameless = run
        .summaries
        .iter()
        .filter(|s| s.littles_delay.is_none())
        .count();
    assert_eq!(
        csv.matches("NaN").count(),
        frameless,
        "no NaN leaks beyond the littles_delay placeholder:\n{csv}"
    );
}

// ---------------------------------------------------------------------------
// 8. Churn soak
// ---------------------------------------------------------------------------

#[test]
fn churn_soak_round_trips_and_replays_200_random_specs() {
    for seed in 0..200u64 {
        let scenario = random_churned_scenario(seed);

        // Exact scenario-file round-trip.
        let text = scenario
            .to_json_string()
            .unwrap_or_else(|e| panic!("seed {seed}: encode: {e}"));
        let back = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: parse: {e}\n{text}"));
        assert_eq!(
            back.to_json_string().unwrap(),
            text,
            "seed {seed}: emit(parse(emit)) must be byte-identical"
        );

        // Replay determinism, from the Rust value and from the file form.
        let run_a = run_contended(&scenario);
        let run_b = run_contended(&back);
        assert_runs_bit_identical(&run_a, &run_b, &format!("seed {seed}: file replay"));

        // The compaction differential on every draw.
        let mut flipped = scenario.clone();
        let churn = flipped.churn.as_mut().unwrap();
        churn.compact = !churn.compact;
        let run_c = run_contended(&flipped);
        assert_runs_bit_identical(&run_a, &run_c, &format!("seed {seed}: compaction flip"));
    }
}
