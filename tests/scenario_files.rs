//! Scenario files end-to-end: golden conformance, exact round-trips, and
//! malformed-input hardening.
//!
//! 1. **Golden replay** — every checked-in `scenarios/*.json` (the E1–E8
//!    presets dumped by `experiments emit`) must (a) be byte-identical to
//!    the preset built in Rust, (b) survive `parse → emit` byte-identically
//!    (canonical form), and (c) *run* to bit-identical headline metrics
//!    whether the scenario came from the file or from Rust — the
//!    reproducibility pin that lets refactors prove they changed nothing.
//! 2. **Round-trip property** — randomly generated scenarios (all
//!    controller/service/stream kinds, budgets, policies, weights, seeds)
//!    survive `emit → parse → emit` byte-identically; the shortest
//!    round-trip float repr makes string equality equivalent to bitwise
//!    structural equality, and the content hash is the digest of exactly
//!    those bytes.
//! 3. **Malformed input** — truncations, unknown keys, wrong types,
//!    non-finite literals, extern controllers, negative weights/alpha,
//!    empty traces, 200k-member objects: each a specific `Err` with
//!    line/column, never a panic (including a mini fuzz loop over
//!    byte-level mutations of a valid file, every mutant's outcome pinned
//!    by digest).
//!
//! This suite runs in debug and release builds and on one worker (see
//! CI's release and `taskset -c 0` passes): the codec path is
//! allocation-only and must not depend on the parallel fan-out.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arvis::core::churn::{ChurnArrivalSpec, ChurnSpec, LifetimeSpec};
use arvis::core::experiment::ServiceSpec;
use arvis::core::hash::{sha256_hex, Sha256};
use arvis::core::json::Pos;
use arvis::core::scenario::{ControllerSpec, Scenario, SessionSpec};
use arvis::core::session::SessionBatch;
use arvis::core::stream::ArStream;
use arvis::core::telemetry::SessionSummary;
use arvis::core::uplink::{
    run_contended, BudgetProfile, BudgetStep, UplinkPolicy, UplinkSpec, UplinkVAdaptSpec,
};
use arvis::quality::DepthProfile;
use arvis_bench::presets::{scenario_preset, SCENARIO_PRESETS};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"))
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

#[test]
fn golden_scenarios_match_their_presets_byte_for_byte() {
    for &name in SCENARIO_PRESETS {
        let path = golden_path(name);
        let file = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (regenerate with `experiments emit all --dir scenarios`)",
                path.display()
            )
        });
        let built = scenario_preset(name).expect(name);
        assert_eq!(
            built.to_json_string().unwrap(),
            file,
            "{name}: checked-in golden differs from the in-Rust preset; \
             regenerate with `experiments emit all --dir scenarios`"
        );
    }
}

#[test]
fn golden_scenarios_reparse_to_their_canonical_form() {
    for &name in SCENARIO_PRESETS {
        let file = std::fs::read_to_string(golden_path(name)).expect(name);
        let parsed = Scenario::from_json_str(&file).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            parsed.to_json_string().unwrap(),
            file,
            "{name}: emit(parse(file)) must reproduce the file byte for byte"
        );
    }
}

#[test]
fn golden_scenarios_replay_bit_identically() {
    for &name in SCENARIO_PRESETS {
        let file = std::fs::read_to_string(golden_path(name)).expect(name);
        let from_file = Scenario::from_json_str(&file).expect(name);
        let from_rust = scenario_preset(name).expect(name);
        // The same auto-selection the `experiments run` subcommand makes:
        // contended when the scenario declares an uplink, uncoupled
        // summaries otherwise.
        if from_file.uplink.is_some() || from_file.fault.is_some() || from_file.churn.is_some() {
            let run_a = run_contended(&from_file);
            let run_b = run_contended(&from_rust);
            assert_eq!(run_a.summaries.len(), run_b.summaries.len(), "{name}");
            for (i, (a, b)) in run_a.summaries.iter().zip(&run_b.summaries).enumerate() {
                assert_summaries_bit_identical(a, b, &format!("{name} session {i}"));
            }
            let (ua, ub) = (run_a.uplink, run_b.uplink);
            assert_eq!(ua.slots, ub.slots, "{name}");
            assert_eq!(ua.contended_slots, ub.contended_slots, "{name}");
            assert_eq!(ua.shed_slots, ub.shed_slots, "{name}");
            assert_eq!(
                ua.deferred_session_slots, ub.deferred_session_slots,
                "{name}"
            );
            assert_eq!(ua.outage_slots, ub.outage_slots, "{name}");
            assert_eq!(ua.down_session_slots, ub.down_session_slots, "{name}");
            assert_eq!(run_a.downtime, run_b.downtime, "{name}: downtime");
            for (field, x, y) in [
                ("mean_budget", ua.mean_budget, ub.mean_budget),
                ("mean_demand", ua.mean_demand, ub.mean_demand),
                ("mean_granted", ua.mean_granted, ub.mean_granted),
                ("mean_backlog", ua.mean_backlog, ub.mean_backlog),
                ("peak_backlog", ua.peak_backlog, ub.peak_backlog),
                ("lost_total", ua.lost_total, ub.lost_total),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}: uplink {field}");
            }
        } else {
            let mut batch_a = SessionBatch::summary_only(&from_file);
            let mut batch_b = SessionBatch::summary_only(&from_rust);
            batch_a.run();
            batch_b.run();
            let (sa, sb) = (batch_a.into_summaries(), batch_b.into_summaries());
            assert_eq!(sa.len(), sb.len(), "{name}");
            for (i, (a, b)) in sa.iter().zip(&sb).enumerate() {
                assert_summaries_bit_identical(a, b, &format!("{name} session {i}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Round-trip property
// ---------------------------------------------------------------------------

fn random_profile(rng: &mut StdRng) -> DepthProfile {
    let min_depth = rng.gen_range(2u8..9);
    let levels = rng.gen_range(2usize..6);
    let arrivals: Vec<f64> = (0..levels)
        .map(|i| 10f64.powf(rng.gen_range(0.0..4.0)) * (i + 1) as f64)
        .collect();
    let quality: Vec<f64> = (0..levels).map(|_| rng.gen_range(0.0..1.0)).collect();
    DepthProfile::from_parts(min_depth, arrivals, quality)
}

fn random_stream(rng: &mut StdRng) -> ArStream {
    match rng.gen_range(0u8..3) {
        0 => ArStream::constant(random_profile(rng)),
        1 => {
            // Cycle frames must share a depth range: scale one profile.
            let base = random_profile(rng);
            let frames = rng.gen_range(1usize..4);
            let profiles = (0..frames)
                .map(|_| {
                    let scale = rng.gen_range(0.5..2.0);
                    DepthProfile::from_parts(
                        base.min_depth(),
                        base.depths().map(|d| base.arrival(d) * scale).collect(),
                        base.depths().map(|d| base.quality(d)).collect(),
                    )
                })
                .collect();
            ArStream::cycle(profiles)
        }
        _ => ArStream::modulated(
            random_profile(rng),
            rng.gen_range(0.0..0.99),
            rng.gen_range(1.0..5_000.0),
        ),
    }
}

fn random_controller(rng: &mut StdRng) -> ControllerSpec {
    match rng.gen_range(0u8..7) {
        0 => ControllerSpec::Proposed {
            v: 10f64.powf(rng.gen_range(0.0..9.0)),
        },
        1 => ControllerSpec::OnlyMax,
        2 => ControllerSpec::OnlyMin,
        3 => ControllerSpec::Fixed {
            depth: rng.gen_range(0u8..=255),
        },
        4 => ControllerSpec::Random { seed: rng.gen() },
        5 => {
            let n = rng.gen_range(1usize..5);
            let mut t = 0.0;
            let thresholds = (0..n)
                .map(|_| {
                    t += 10f64.powf(rng.gen_range(0.0..5.0));
                    t
                })
                .collect();
            ControllerSpec::Threshold { thresholds }
        }
        _ => ControllerSpec::AdaptiveV {
            initial_v: 10f64.powf(rng.gen_range(1.0..8.0)),
            target_backlog: 10f64.powf(rng.gen_range(1.0..6.0)),
        },
    }
}

fn random_service(rng: &mut StdRng) -> ServiceSpec {
    match rng.gen_range(0u8..3) {
        0 => ServiceSpec::Constant(rng.gen_range(0.0..1e5)),
        1 => ServiceSpec::Jittered {
            rate: rng.gen_range(0.0..1e5),
            sigma: rng.gen_range(0.0..0.5),
        },
        _ => ServiceSpec::DutyCycled {
            high: rng.gen_range(0.0..1e5),
            low: rng.gen_range(0.0..1e3),
            high_slots: rng.gen_range(1u64..100),
            low_slots: rng.gen_range(0u64..100),
        },
    }
}

fn random_budget(rng: &mut StdRng) -> BudgetProfile {
    match rng.gen_range(0u8..4) {
        0 => BudgetProfile::Constant(if rng.gen_bool(0.2) {
            f64::INFINITY
        } else {
            rng.gen_range(0.0..1e6)
        }),
        1 => {
            let mean = rng.gen_range(0.0..1e6);
            BudgetProfile::Diurnal {
                mean,
                amplitude: mean * rng.gen_range(0.0..1.0),
                period: rng.gen_range(1u64..10_000),
                phase: rng.gen_range(-2.0..2.0),
            }
        }
        2 => {
            let n = rng.gen_range(1usize..5);
            let mut start = 0u64;
            BudgetProfile::PiecewiseSteps(
                (0..n)
                    .map(|i| {
                        if i > 0 {
                            start += rng.gen_range(1u64..500);
                        }
                        BudgetStep {
                            start,
                            budget: rng.gen_range(0.0..1e6),
                        }
                    })
                    .collect(),
            )
        }
        _ => BudgetProfile::Trace(
            (0..rng.gen_range(1usize..20))
                .map(|_| {
                    if rng.gen_bool(0.05) {
                        f64::INFINITY
                    } else {
                        rng.gen_range(0.0..1e6)
                    }
                })
                .collect(),
        ),
    }
}

fn random_policy(rng: &mut StdRng, sessions: usize) -> UplinkPolicy {
    match rng.gen_range(0u8..5) {
        0 => UplinkPolicy::Unconstrained,
        1 => UplinkPolicy::ProportionalShare,
        2 => UplinkPolicy::MaxWeightBacklog,
        3 => UplinkPolicy::WeightedMaxWeight {
            weights: (0..sessions).map(|_| rng.gen_range(0.1..16.0)).collect(),
        },
        _ => UplinkPolicy::AlphaFair {
            alpha: if rng.gen_bool(0.2) {
                f64::INFINITY
            } else {
                rng.gen_range(1.0..8.0)
            },
        },
    }
}

fn random_session(rng: &mut StdRng) -> SessionSpec {
    let controller = random_controller(rng);
    let can_adapt = matches!(&controller, ControllerSpec::Proposed { v } if *v > 0.0);
    SessionSpec {
        stream: random_stream(rng),
        service: random_service(rng),
        controller,
        seed: rng.gen(),
        queue_capacity: rng.gen_bool(0.3).then(|| rng.gen_range(0.0..1e9)),
        warmup: rng.gen_range(0u64..1_000),
        frame_cap: rng.gen_bool(0.3).then(|| rng.gen_range(1usize..1 << 20)),
        uplink_v_adapt: (can_adapt && rng.gen_bool(0.4)).then(|| {
            let low = rng.gen_range(0.1..0.8);
            UplinkVAdaptSpec {
                low,
                high: rng.gen_range(low..1.0),
                step: rng.gen_range(0.01..0.5),
                min_v_scale: rng.gen_range(0.001..1.0),
            }
        }),
    }
}

/// A random-but-valid churn spec: joins need a template and a cap, a
/// weight is tied to a weighted uplink policy, and a join-less spec may
/// still declare lifetimes (departure-only churn).
fn random_churn(rng: &mut StdRng, weighted: bool) -> ChurnSpec {
    let mut churn = ChurnSpec::new();
    let joins = rng.gen_bool(0.7);
    if joins {
        let arrivals = match rng.gen_range(0u8..3) {
            0 => ChurnArrivalSpec::Poisson {
                lambda: rng.gen_range(0.0..2.0),
                seed: rng.gen(),
            },
            1 => ChurnArrivalSpec::Mmpp2 {
                lambda_low: rng.gen_range(0.0..0.5),
                lambda_high: rng.gen_range(0.0..4.0),
                switch_up: rng.gen_range(0.0..1.0),
                switch_down: rng.gen_range(0.0..1.0),
                seed: rng.gen(),
            },
            _ => ChurnArrivalSpec::Trace {
                counts: (0..rng.gen_range(1usize..30))
                    .map(|_| rng.gen_range(0u64..3))
                    .collect(),
            },
        };
        churn = churn.with_arrivals(arrivals, random_session(rng), rng.gen_range(1u64..64));
        if weighted {
            churn = churn.with_weight(rng.gen_range(0.1..16.0));
        }
    }
    if !joins || rng.gen_bool(0.7) {
        let lifetime = match rng.gen_range(0u8..3) {
            0 => LifetimeSpec::Fixed {
                slots: rng.gen_range(1u64..10_000),
            },
            1 => LifetimeSpec::Geometric {
                mean: rng.gen_range(1.0..5_000.0),
                seed: rng.gen(),
            },
            _ => {
                let min = rng.gen_range(1u64..500);
                LifetimeSpec::Uniform {
                    min,
                    max: min + rng.gen_range(0u64..5_000),
                    seed: rng.gen(),
                }
            }
        };
        churn = churn.with_lifetime(lifetime);
    }
    churn.with_compaction(rng.gen_bool(0.5))
}

fn random_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario = Scenario::new(rng.gen_range(1u64..5_000));
    let sessions = rng.gen_range(1usize..6);
    for _ in 0..sessions {
        let spec = random_session(&mut rng);
        scenario.sessions.push(spec);
    }
    let mut weighted = false;
    if rng.gen_bool(0.6) {
        let policy = random_policy(&mut rng, sessions);
        weighted = matches!(policy, UplinkPolicy::WeightedMaxWeight { .. });
        scenario = scenario.with_uplink(UplinkSpec::with_profile(random_budget(&mut rng), policy));
    }
    if rng.gen_bool(0.4) {
        scenario = scenario.with_churn(random_churn(&mut rng, weighted));
    }
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `emit → parse → emit` is byte-identical for arbitrary
    /// scenarios. The float formatter is injective on finite `f64`s (and
    /// integers are kept exact), so byte equality of the canonical form
    /// *is* bitwise structural equality — every weight, rate, seed and
    /// quality value survived unchanged.
    #[test]
    fn scenario_roundtrip_is_byte_identical(seed in any::<u64>()) {
        let scenario = random_scenario(seed);
        let text = scenario.to_json_string().expect("encode");
        let back = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        prop_assert_eq!(back.to_json_string().unwrap(), text.clone(), "seed {}", seed);
        // The content hash is the digest of exactly the printed bytes.
        prop_assert_eq!(scenario.content_hash().unwrap(), sha256_hex(text.as_bytes()), "seed {}", seed);
        // Spot-check structure on the PartialEq-able surface too.
        prop_assert_eq!(back.slots, scenario.slots);
        prop_assert_eq!(back.len(), scenario.len());
        prop_assert_eq!(&back.uplink, &scenario.uplink);
        for (a, b) in back.sessions.iter().zip(&scenario.sessions) {
            prop_assert_eq!(a.seed, b.seed);
            prop_assert_eq!(&a.service, &b.service);
            prop_assert_eq!(a.queue_capacity.map(f64::to_bits), b.queue_capacity.map(f64::to_bits));
            prop_assert_eq!(a.frame_cap, b.frame_cap);
            prop_assert_eq!(&a.uplink_v_adapt, &b.uplink_v_adapt);
        }
        prop_assert_eq!(back.churn.is_some(), scenario.churn.is_some());
        if let (Some(a), Some(b)) = (&back.churn, &scenario.churn) {
            prop_assert_eq!(&a.arrivals, &b.arrivals);
            prop_assert_eq!(a.max_joins, b.max_joins);
            prop_assert_eq!(a.weight.map(f64::to_bits), b.weight.map(f64::to_bits));
            prop_assert_eq!(&a.lifetime, &b.lifetime);
            prop_assert_eq!(a.compact, b.compact);
            prop_assert_eq!(
                a.template.as_ref().map(|t| t.seed),
                b.template.as_ref().map(|t| t.seed)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed inputs: specific errors with positions, never panics
// ---------------------------------------------------------------------------

/// A minimal valid scenario file, hand-formatted on known lines.
fn mini_text() -> String {
    scenario_preset("e1_fig2")
        .unwrap()
        .to_json_string()
        .unwrap()
}

fn expect_err(text: &str, want: &str) -> arvis::core::json::JsonError {
    match Scenario::from_json_str(text) {
        Ok(_) => panic!("input unexpectedly parsed (wanted error \"{want}\"):\n{text}"),
        Err(e) => {
            assert!(
                e.msg.contains(want),
                "error {:?} does not mention \"{want}\"",
                e.to_string()
            );
            e
        }
    }
}

#[test]
fn truncated_files_error_cleanly() {
    let text = mini_text();
    for cut in [0, 1, text.len() / 4, text.len() / 2, text.len() - 2] {
        let err = Scenario::from_json_str(&text[..cut]).expect_err("truncated");
        assert!(
            err.pos.is_some(),
            "cut at {cut}: error must carry a position"
        );
    }
}

#[test]
fn unknown_keys_are_rejected_with_position() {
    let err = expect_err(
        "{\n  \"schema\": 1,\n  \"slots\": 10,\n  \"sessions\": [],\n  \"wat\": 1\n}",
        "unknown key \"wat\"",
    );
    let pos = err.pos.unwrap();
    assert_eq!((pos.line, pos.col), (5, 3));
}

#[test]
fn wrong_types_are_rejected() {
    expect_err(
        "{\"schema\": 1, \"slots\": \"lots\", \"sessions\": []}",
        "expected an integer, found a string",
    );
    expect_err(
        "{\"schema\": 1, \"slots\": 9.5, \"sessions\": []}",
        "expected an integer, found a non-integer number",
    );
    expect_err(
        "{\"schema\": 1, \"slots\": 10, \"sessions\": {}}",
        "expected an array, found an object",
    );
}

#[test]
fn schema_version_is_mandatory_and_checked() {
    expect_err(
        "{\"slots\": 10, \"sessions\": []}",
        "missing required key \"schema\"",
    );
    expect_err(
        "{\"schema\": 4, \"slots\": 10, \"sessions\": []}",
        "unsupported schema version 4",
    );
    expect_err(
        "{\"schema\": 0, \"slots\": 10, \"sessions\": []}",
        "unsupported schema version 0",
    );
    // Schemas 2 (fault plane) and 3 (churn, this build's newest) parse; a
    // lower-versioned file smuggling the newer member does not.
    assert!(
        Scenario::from_json_str("{\"schema\": 2, \"slots\": 10, \"sessions\": []}").is_ok(),
        "schema 2 is supported"
    );
    assert!(
        Scenario::from_json_str("{\"schema\": 3, \"slots\": 10, \"sessions\": []}").is_ok(),
        "schema 3 is supported"
    );
    expect_err(
        "{\"schema\": 1, \"slots\": 10, \"sessions\": [], \"fault\": {\"events\": []}}",
        "\"fault\" requires schema version 2",
    );
    expect_err(
        "{\"schema\": 2, \"slots\": 10, \"sessions\": [], \"churn\": {\"compact\": true}}",
        "\"churn\" requires schema version 3",
    );
}

#[test]
fn non_finite_literals_are_rejected() {
    for bad in ["NaN", "Infinity", "-Infinity", "1e999"] {
        let text = format!("{{\"schema\": 1, \"slots\": {bad}, \"sessions\": []}}");
        let err = Scenario::from_json_str(&text).expect_err(bad);
        assert!(err.pos.is_some(), "{bad} must have a position");
    }
}

#[test]
fn extern_controllers_are_rejected_in_files() {
    let text = mini_text().replace("\"type\": \"proposed\"", "\"type\": \"extern\"");
    let err = expect_err(&text, "unknown controller type \"extern\"");
    // Reported at the tag's own value.
    let at = text.find("\"extern\"").unwrap();
    let line = text[..at].matches('\n').count() + 1;
    let col = at - text[..at].rfind('\n').map_or(0, |nl| nl + 1) + 1;
    let pos = err.pos.expect("a decode error carries its position");
    assert_eq!((pos.line as usize, pos.col as usize), (line, col), "{err}");
}

#[test]
fn bad_uplink_parameters_are_rejected() {
    let session = "{\"stream\": {\"type\": \"constant\", \"profile\": {\"min_depth\": 5, \
                   \"arrivals\": [100, 400], \"quality\": [0, 1]}}, \
                   \"service\": {\"type\": \"constant\", \"rate\": 500}, \
                   \"controller\": {\"type\": \"only_min\"}, \"seed\": 0, \"warmup\": 0}";
    let with_uplink = |uplink: &str| {
        format!("{{\"schema\": 1, \"slots\": 10, \"sessions\": [{session}], \"uplink\": {uplink}}}")
    };

    expect_err(
        &with_uplink(
            "{\"budget\": {\"type\": \"constant\", \"budget\": 100}, \
             \"policy\": {\"type\": \"weighted_max_weight\", \"weights\": [1, -2]}}",
        ),
        "bad max-weight weight -2",
    );
    expect_err(
        &with_uplink(
            "{\"budget\": {\"type\": \"constant\", \"budget\": 100}, \
             \"policy\": {\"type\": \"weighted_max_weight\", \"weights\": [1, 2]}}",
        ),
        "declares 2 weights for 1 sessions",
    );
    expect_err(
        &with_uplink(
            "{\"budget\": {\"type\": \"constant\", \"budget\": 100}, \
             \"policy\": {\"type\": \"alpha_fair\", \"alpha\": 0.5}}",
        ),
        "alpha must be >= 1",
    );
    expect_err(
        &with_uplink(
            "{\"budget\": {\"type\": \"trace\", \"budgets\": []}, \
             \"policy\": {\"type\": \"proportional_share\"}}",
        ),
        "need at least one traced budget",
    );
    expect_err(
        &with_uplink(
            "{\"budget\": {\"type\": \"constant\", \"budget\": -5}, \
             \"policy\": {\"type\": \"proportional_share\"}}",
        ),
        "bad budget -5",
    );
    expect_err(
        &with_uplink(
            "{\"budget\": {\"type\": \"diurnal\", \"mean\": 10, \"amplitude\": 11, \
             \"period\": 5, \"phase\": 0}, \"policy\": {\"type\": \"proportional_share\"}}",
        ),
        "diurnal amplitude must be in [0, mean]",
    );
}

#[test]
fn duty_cycle_slot_count_overflow_is_rejected() {
    // u64::MAX + 1 slots per cycle must error, not overflow the add the
    // decoder (and the service constructor) performs.
    let text = format!(
        "{{\"schema\": 1, \"slots\": 10, \"sessions\": [{{\
         \"stream\": {{\"type\": \"constant\", \"profile\": {{\"min_depth\": 5, \
         \"arrivals\": [100, 400], \"quality\": [0, 1]}}}}, \
         \"service\": {{\"type\": \"duty_cycled\", \"high\": 10, \"low\": 1, \
         \"high_slots\": {}, \"low_slots\": 1}}, \
         \"controller\": {{\"type\": \"only_min\"}}, \"seed\": 0, \"warmup\": 0}}]}}",
        u64::MAX
    );
    expect_err(&text, "overflows u64");
}

#[test]
fn non_finite_rust_built_specs_fail_to_encode() {
    // Encoding (not just decoding) must never panic: a Rust-built spec
    // holding a non-finite value gets a JsonError naming the field.
    let profile = DepthProfile::from_parts(5, vec![100.0, 400.0], vec![0.0, 1.0]);
    let base = arvis::core::experiment::ExperimentConfig::new(profile, 500.0, 10);
    let mut scenario = Scenario::single(&base, ControllerSpec::OnlyMin);
    scenario.sessions[0].queue_capacity = Some(f64::INFINITY);
    let err = scenario.to_json_string().unwrap_err();
    assert!(err.msg.contains("queue_capacity"), "{}", err.msg);

    let scenario = Scenario::single(&base, ControllerSpec::Proposed { v: f64::NAN });
    let err = scenario.to_json_string().unwrap_err();
    assert!(err.msg.contains("must be finite"), "{}", err.msg);

    let mut scenario = Scenario::single(&base, ControllerSpec::OnlyMin);
    scenario.uplink = Some(UplinkSpec {
        budget: BudgetProfile::Constant(100.0),
        policy: UplinkPolicy::AlphaFair { alpha: f64::NAN },
    });
    let err = scenario.to_json_string().unwrap_err();
    assert!(err.msg.contains("alpha"), "{}", err.msg);
}

#[test]
fn v_adapt_without_proposed_controller_is_rejected() {
    let text = "{\"schema\": 1, \"slots\": 10, \"sessions\": [{\
                \"stream\": {\"type\": \"constant\", \"profile\": {\"min_depth\": 5, \
                \"arrivals\": [100, 400], \"quality\": [0, 1]}}, \
                \"service\": {\"type\": \"constant\", \"rate\": 500}, \
                \"controller\": {\"type\": \"only_max\"}, \"seed\": 0, \"warmup\": 0, \
                \"uplink_v_adapt\": {\"low\": 0.85, \"high\": 0.95, \"step\": 0.05, \
                \"min_v_scale\": 0.01}}]}";
    expect_err(text, "requires a proposed controller");
}

#[test]
fn duplicate_keys_are_rejected() {
    expect_err(
        "{\"schema\": 1, \"schema\": 1, \"slots\": 10, \"sessions\": []}",
        "duplicate key \"schema\"",
    );
}

/// `{"schema": 1, "slots": 10, "sessions": [], "pad": {…}}` with `keys`
/// members `"k0": 0, "k1": 0, …` in `"pad"`, the last one named `"k0"`
/// when `repeat_first`.
fn padded_scenario(keys: usize, repeat_first: bool) -> String {
    use std::fmt::Write as _;
    let mut text = String::from("{\"schema\": 1, \"slots\": 10, \"sessions\": [], \"pad\": {");
    for i in 0..keys {
        let i = if repeat_first && i + 1 == keys { 0 } else { i };
        let sep = if text.ends_with('{') { "" } else { ", " };
        write!(text, "{sep}\"k{i}\": 0").unwrap();
    }
    text.push_str("}}");
    text
}

/// A 2 MB object of 200k distinct keys is parsed whole, in O(n log n) of
/// its keys, before the scenario decoder rejects the member holding it.
#[test]
fn large_objects_parse_before_unknown_keys_are_rejected() {
    let err = expect_err(&padded_scenario(200_000, false), "unknown key \"pad\"");
    assert_eq!(err.pos, Some(Pos { line: 1, col: 44 }));
}

/// A duplicate key at the end of a 200k-member object is found at its own
/// position, without a scan of every earlier key per key.
#[test]
fn large_objects_report_a_late_duplicate_key_at_its_position() {
    let text = padded_scenario(200_000, true);
    let err = expect_err(&text, "duplicate key \"k0\"");
    let col = text.rfind("\"k0\"").expect("the repeat") + 1;
    assert_eq!(
        err.pos,
        Some(Pos {
            line: 1,
            col: col as u32
        })
    );
}

/// The outcome digests of the three byte-mutation batteries below: a
/// parser change that moves any error's text, line or column, or lets a
/// different mutant through, changes one of them.
const FUZZ_DIGEST_SCHEMA_1: &str =
    "b34641635de32f4b4a40f8d5d77028e894d97fcf7d18ccbb6f5024fa5cc7fb7d";
const FUZZ_DIGEST_SCHEMA_2: &str =
    "ea8ce5ac2f2619ba3bbea67aed59d0a2fa0f24873eab1600371b694e68e0a4d7";
const FUZZ_DIGEST_SCHEMA_3: &str =
    "c3b96eeab064a96a4eb5939871b230d25717a37f2ac5a905128c48831074d53b";

/// The mini fuzz loop shared by the schema-1, schema-2 and schema-3
/// batteries: byte-level mutations of a valid scenario file must always
/// yield `Ok` or a positioned `Err` — never a panic, hang, or abort. (Runs
/// the parser + full decoder on every mutant.) Returns the error count and
/// a SHA-256 over every mutant's outcome in order — its rendered error
/// (`line L, column C: msg`), or its content hash when it parses — so a
/// pinned digest holds every message, line and column the parser gives.
fn fuzz_byte_mutations(valid: &[u8], seed: u64) -> (usize, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut errors = 0usize;
    let mut outcomes = Sha256::new();
    for case in 0..600u32 {
        let mut bytes = valid.to_vec();
        match case % 3 {
            0 => {
                // Flip one byte to an arbitrary value.
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen();
            }
            1 => {
                // Truncate at an arbitrary point.
                let cut = rng.gen_range(0..bytes.len());
                bytes.truncate(cut);
            }
            _ => {
                // Insert an arbitrary byte.
                let i = rng.gen_range(0..=bytes.len());
                bytes.insert(i, rng.gen());
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let outcome = match Scenario::from_json_str(&text) {
            Ok(scenario) => scenario.content_hash().expect("a parsed scenario hashes"),
            Err(e) => {
                errors += 1;
                // Every error must render (exercises Display) and most
                // carry a position.
                e.to_string()
            }
        };
        outcomes.update(outcome.as_bytes());
        outcomes.update(b"\n");
    }
    (errors, outcomes.finalize_hex())
}

#[test]
fn byte_mutation_fuzz_never_panics() {
    let (errors, digest) = fuzz_byte_mutations(mini_text().as_bytes(), 0x5EED_F00D);
    assert!(errors > 300, "mutations should mostly fail ({errors}/600)");
    assert_eq!(digest, FUZZ_DIGEST_SCHEMA_1, "every mutant's outcome");
}

/// The same battery over the schema-2 fault surface: mutants of the
/// faulted E7 golden exercise the `"fault"` decoder (events, guard,
/// cross-references to session indices) byte-by-byte, and must never
/// panic either.
#[test]
fn byte_mutation_fuzz_covers_schema_2_fault_bytes() {
    let valid = std::fs::read(golden_path("e7_fault_outage")).expect("read e7 golden");
    assert!(
        String::from_utf8_lossy(&valid).contains("\"fault\""),
        "e7 golden must carry the schema-2 fault surface"
    );
    let (errors, digest) = fuzz_byte_mutations(&valid, 0x5EED_FA17);
    assert!(errors > 300, "mutations should mostly fail ({errors}/600)");
    assert_eq!(digest, FUZZ_DIGEST_SCHEMA_2, "every mutant's outcome");
}

/// And over the schema-3 churn surface: mutants of the churned E8 golden
/// exercise the `"churn"` decoder (arrival processes, lifetimes, the
/// joiner template, the weighted-uplink cross-checks) byte-by-byte, and
/// must never panic either.
#[test]
fn byte_mutation_fuzz_covers_schema_3_churn_bytes() {
    let valid = std::fs::read(golden_path("e8_churn")).expect("read e8 golden");
    assert!(
        String::from_utf8_lossy(&valid).contains("\"churn\""),
        "e8 golden must carry the schema-3 churn surface"
    );
    let (errors, digest) = fuzz_byte_mutations(&valid, 0x5EED_C402);
    assert!(errors > 300, "mutations should mostly fail ({errors}/600)");
    assert_eq!(digest, FUZZ_DIGEST_SCHEMA_3, "every mutant's outcome");
}
