//! Chaos conformance: the deterministic fault plane end to end.
//!
//! 1. **Faulted replay** — a schema-2 scenario exercising brownouts, warm
//!    restarts, lossy grants and a clamping degradation guard replays
//!    bit-identically from its own JSON file, including every fault
//!    aggregate in the uplink summary and the per-session downtime.
//! 2. **Empty plan ≡ fault-free** — a scenario declaring an *empty*
//!    `FaultPlan` runs bitwise identically to the same scenario with no
//!    plan at all: `fault: None` is the fault-free code path, and an empty
//!    plan never builds a plane.
//! 3. **ColdRestart ≡ fresh session** — the post-restart trajectory of a
//!    cold-restarted session is bitwise the trajectory of a brand-new
//!    session run over the residual horizon (the local-clock contract).
//! 4. **Conservation** — `granted ≤ budget` on every slot under a mixed
//!    fault plan (outage + brownout + crashes + loss + guard), with outage
//!    slots granting exactly zero.
//! 5. **Chaos soak** — hundreds of seeded random fault plans over random
//!    small fleets: never a panic, every summary field finite, and the
//!    scenario file round-trip stays byte-exact.
//! 6. **Degenerate fleets** — zero sessions and zero slots survive faults
//!    with sane all-zero summaries (satellite of the robustness PR).
//!
//! This suite also runs on one worker (CI's `taskset -c 0` pass): fault
//! determinism must not depend on the parallel fan-out.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arvis::core::experiment::{ExperimentConfig, ServiceSpec};
use arvis::core::fault::{CrashPolicy, DegradationGuardSpec, FaultEvent, FaultPlan, ShedMode};
use arvis::core::scenario::{ControllerSpec, Scenario, SessionSpec};
use arvis::core::session::{Liveness, SessionBatch};
use arvis::core::telemetry::SessionSummary;
use arvis::core::uplink::{run_contended, ContendedRun, UplinkPolicy, UplinkSpec};
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
/// service (so crash/restart must replay seeded processes, not constants).
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

/// Bitwise equality of two whole contended runs, fault aggregates included.
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

/// A faulted scenario deliberately complementary to the E7 golden:
/// brownout (not outage), warm restart (not cold), a clamping guard with a
/// finite backlog trigger (not a deferring EMA-only one).
fn brownout_scenario() -> Scenario {
    let mut scenario = fleet(5, 600, 0xB40);
    let demand: f64 = scenario
        .sessions
        .iter()
        .map(|s| s.service.mean_rate())
        .sum();
    scenario = scenario.with_uplink(UplinkSpec::new(
        0.8 * demand,
        UplinkPolicy::MaxWeightBacklog,
    ));
    scenario.with_fault(
        FaultPlan::new()
            .with_event(FaultEvent::Brownout {
                start: 150,
                slots: 120,
                factor: 0.35,
            })
            .with_event(FaultEvent::GrantLoss {
                session: 1,
                p: 0.2,
                seed: 11,
            })
            .with_event(FaultEvent::SessionCrash {
                session: 3,
                slot: 200,
                restart_after: Some(40),
                policy: CrashPolicy::WarmRestart,
            })
            .with_guard(DegradationGuardSpec {
                ema_alpha: 0.1,
                engage_above: 0.8,
                release_below: 0.5,
                backlog_limit: 40.0 * demand,
                shed_fraction: 0.4,
                mode: ShedMode::Clamp { factor: 0.25 },
            }),
    )
}

#[test]
fn faulted_run_replays_bit_identically_from_its_file() {
    let scenario = brownout_scenario();
    let text = scenario.to_json_string().unwrap();
    assert!(
        text.starts_with("{\n  \"schema\": 2,"),
        "faulted ⇒ schema 2"
    );
    let from_file = Scenario::from_json_str(&text).unwrap();
    assert_eq!(from_file.to_json_string().unwrap(), text, "canonical");

    let run_a = run_contended(&scenario);
    let run_b = run_contended(&from_file);
    assert_runs_bit_identical(&run_a, &run_b, "brownout scenario");

    // The faults actually fired: a warm restart's 40 missed slots, brownout
    // pressure shed by the guard, and lossy grants on session 1.
    assert_eq!(run_a.downtime[3], 40, "warm restart downtime");
    assert!(
        run_a.uplink.lost_total > 0.0,
        "p=0.2 loss destroyed capacity"
    );
    assert!(run_a.uplink.shed_slots > 0, "guard engaged under brownout");
    assert_eq!(run_a.uplink.outage_slots, 0, "brownout is not an outage");
}

#[test]
fn empty_fault_plan_is_bitwise_the_fault_free_path() {
    let mut faulted = fleet(4, 500, 0xE3);
    let demand: f64 = faulted.sessions.iter().map(|s| s.service.mean_rate()).sum();
    faulted = faulted
        .with_uplink(UplinkSpec::new(
            0.7 * demand,
            UplinkPolicy::MaxWeightBacklog,
        ))
        .with_fault(FaultPlan::new());
    let mut fault_free = faulted.clone();
    fault_free.fault = None;

    let run_a = run_contended(&faulted);
    let run_b = run_contended(&fault_free);
    assert_runs_bit_identical(&run_a, &run_b, "empty plan vs no plan");
    assert_eq!(run_a.uplink.shed_slots, 0);
    assert_eq!(run_a.uplink.down_session_slots, 0);
    assert_eq!(run_a.uplink.lost_total.to_bits(), 0.0f64.to_bits());
    assert!(run_a.downtime.iter().all(|&d| d == 0));
}

#[test]
fn grant_loss_with_p_zero_is_bitwise_event_free() {
    let base = {
        let mut s = fleet(3, 400, 0x10);
        let demand: f64 = s.sessions.iter().map(|spec| spec.service.mean_rate()).sum();
        s = s.with_uplink(UplinkSpec::new(
            0.75 * demand,
            UplinkPolicy::ProportionalShare,
        ));
        s
    };
    let p0 = base
        .clone()
        .with_fault(FaultPlan::new().with_event(FaultEvent::GrantLoss {
            session: 1,
            p: 0.0,
            seed: 99,
        }));
    let p1 = base
        .clone()
        .with_fault(FaultPlan::new().with_event(FaultEvent::GrantLoss {
            session: 1,
            p: 1.0,
            seed: 99,
        }));

    let run_free = run_contended(&base);
    let run_p0 = run_contended(&p0);
    assert_runs_bit_identical(&run_p0, &run_free, "p=0 loss vs event-free");

    // p=1 destroys every grant the session wins: capacity is lost, and the
    // starved session's queue dominates its fault-free self.
    let run_p1 = run_contended(&p1);
    assert!(run_p1.uplink.lost_total > 0.0, "p=1 loses capacity");
    assert!(
        run_p1.summaries[1].mean_backlog > run_free.summaries[1].mean_backlog,
        "starved session backs up"
    );
}

#[test]
fn cold_restart_equals_fresh_session_with_residual_horizon() {
    let (slots, crash_at, down) = (400u64, 100u64, 50u64);
    let faulted = fleet(1, slots, 0xC01D);
    let plan = FaultPlan::new().with_event(FaultEvent::SessionCrash {
        session: 0,
        slot: crash_at,
        restart_after: Some(down),
        policy: CrashPolicy::ColdRestart,
    });

    let mut batch = SessionBatch::full_trace(&faulted);
    let mut uplink = arvis::core::uplink::SharedUplink::with_fault(
        UplinkSpec::unconstrained(),
        &plan,
        faulted.sessions.len(),
    );
    while !batch.is_done() {
        uplink.step_slot(&mut batch);
    }
    assert_eq!(batch.downtime(), &[down]);
    assert!(batch.liveness(0).is_live(), "restarted by the horizon");

    // The same single session, brand new, over the residual horizon.
    let residual = slots - crash_at - down;
    let fresh = fleet(1, residual, 0xC01D);
    let mut fresh_batch = SessionBatch::full_trace(&fresh);
    fresh_batch.run();

    let faulted_trace = &batch.sinks()[0];
    let fresh_trace = &fresh_batch.sinks()[0];
    // The sink saw `crash_at` live slots, then the restarted trajectory.
    assert_eq!(faulted_trace.backlog.len() as u64, crash_at + residual);
    let series = [
        ("backlog", &faulted_trace.backlog, &fresh_trace.backlog),
        ("depth", &faulted_trace.depth, &fresh_trace.depth),
        ("quality", &faulted_trace.quality, &fresh_trace.quality),
        ("arrivals", &faulted_trace.arrivals, &fresh_trace.arrivals),
        ("service", &faulted_trace.service, &fresh_trace.service),
    ];
    for (name, faulted_series, fresh_series) in series {
        let tail = &faulted_series.values()[crash_at as usize..];
        assert_eq!(tail.len(), fresh_series.values().len(), "{name}: length");
        for (slot, (x, y)) in tail.iter().zip(fresh_series.values()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}: post-restart slot {slot}: {x} vs {y}"
            );
        }
    }
    // Frames completed after the restart are bitwise the fresh session's
    // (the latency tracker is rebuilt and runs on the restarted clock).
    let fresh_frames = &fresh_trace.frame_latencies;
    let faulted_frames = &faulted_trace.frame_latencies;
    assert!(faulted_frames.len() >= fresh_frames.len());
    let tail = &faulted_frames[faulted_frames.len() - fresh_frames.len()..];
    for (i, (x, y)) in tail.iter().zip(fresh_frames).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "frame {i}: {x} vs {y}");
    }
}

#[test]
fn warm_restart_preserves_the_queue_cold_restart_resets_it() {
    let (slots, crash_at, down) = (200u64, 100u64, 10u64);
    // An overloaded session: only-max-depth against a service rate far
    // below the max-depth arrival, so the queue grows without bound and
    // the pre-crash backlog is unambiguous.
    let cfg = ExperimentConfig::new(profile(), 2_000.0, slots);
    let mut scenario = Scenario::new(slots);
    scenario
        .sessions
        .push(SessionSpec::from_config(&cfg, ControllerSpec::OnlyMax));

    let run = |policy: CrashPolicy| {
        let plan = FaultPlan::new().with_event(FaultEvent::SessionCrash {
            session: 0,
            slot: crash_at,
            restart_after: Some(down),
            policy,
        });
        let mut batch = SessionBatch::full_trace(&scenario);
        let mut uplink =
            arvis::core::uplink::SharedUplink::with_fault(UplinkSpec::unconstrained(), &plan, 1);
        while !batch.is_done() {
            uplink.step_slot(&mut batch);
        }
        assert_eq!(batch.downtime(), &[down], "{policy:?} downtime");
        batch.into_sinks().remove(0)
    };

    let warm = run(CrashPolicy::WarmRestart);
    let cold = run(CrashPolicy::ColdRestart);
    let pre_crash = warm.backlog.values()[crash_at as usize - 1];
    let warm_resumed = warm.backlog.values()[crash_at as usize];
    let cold_resumed = cold.backlog.values()[crash_at as usize];
    assert!(
        warm_resumed >= pre_crash,
        "warm restart keeps the queue: {warm_resumed} vs {pre_crash}"
    );
    assert!(
        cold_resumed < pre_crash * 0.5,
        "cold restart drains the queue: {cold_resumed} vs {pre_crash}"
    );
}

#[test]
fn permanent_crash_stays_dead_and_counts_downtime() {
    let slots = 300u64;
    let mut scenario = fleet(3, slots, 0xDEAD);
    let demand: f64 = scenario
        .sessions
        .iter()
        .map(|s| s.service.mean_rate())
        .sum();
    scenario = scenario
        .with_uplink(UplinkSpec::new(
            0.8 * demand,
            UplinkPolicy::MaxWeightBacklog,
        ))
        .with_fault(FaultPlan::new().with_event(FaultEvent::SessionCrash {
            session: 2,
            slot: 120,
            restart_after: None,
            policy: CrashPolicy::Permanent,
        }));

    let mut batch = SessionBatch::summary_only(&scenario);
    let mut uplink = arvis::core::uplink::SharedUplink::with_fault(
        scenario.uplink.clone().unwrap(),
        scenario.fault.as_ref().unwrap(),
        3,
    );
    while !batch.is_done() {
        uplink.step_slot(&mut batch);
    }
    assert!(matches!(batch.liveness(2), Liveness::Dead));
    assert_eq!(batch.downtime(), &[0, 0, slots - 120]);
    assert_eq!(uplink.summary().down_session_slots, slots - 120);
    // The dead session stops observing slots; the survivors run the full
    // horizon.
    let summaries = batch.into_summaries();
    assert_eq!(summaries[2].slots, 120);
    assert_eq!(summaries[0].slots, slots);
}

#[test]
fn conservation_holds_under_a_mixed_fault_plan() {
    let mut scenario = fleet(4, 500, 0xC0);
    let demand: f64 = scenario
        .sessions
        .iter()
        .map(|s| s.service.mean_rate())
        .sum();
    let budget = 0.6 * demand;
    scenario = scenario.with_uplink(UplinkSpec::new(budget, UplinkPolicy::MaxWeightBacklog));
    let plan = FaultPlan::new()
        .with_event(FaultEvent::Outage {
            start: 100,
            slots: 30,
        })
        .with_event(FaultEvent::Brownout {
            start: 200,
            slots: 80,
            factor: 0.5,
        })
        .with_event(FaultEvent::GrantLoss {
            session: 0,
            p: 0.3,
            seed: 5,
        })
        .with_event(FaultEvent::SessionCrash {
            session: 1,
            slot: 150,
            restart_after: Some(60),
            policy: CrashPolicy::ColdRestart,
        })
        .with_guard(DegradationGuardSpec {
            ema_alpha: 0.2,
            engage_above: 0.7,
            release_below: 0.4,
            backlog_limit: f64::INFINITY,
            shed_fraction: 0.5,
            mode: ShedMode::Defer,
        });
    let scenario = scenario.with_fault(plan);

    let mut batch = SessionBatch::summary_only(&scenario);
    let mut uplink = arvis::core::uplink::SharedUplink::with_fault(
        scenario.uplink.clone().unwrap(),
        scenario.fault.as_ref().unwrap(),
        4,
    );
    while !batch.is_done() {
        let stats = uplink.step_slot(&mut batch);
        assert!(
            stats.granted <= stats.budget * (1.0 + 1e-9) + 1e-9,
            "slot {}: granted {} exceeds budget {}",
            stats.slot,
            stats.granted,
            stats.budget
        );
        if (100..130).contains(&stats.slot) {
            assert_eq!(stats.budget, 0.0, "outage slot {} budget", stats.slot);
            assert_eq!(stats.granted, 0.0, "outage slot {} grant", stats.slot);
        }
        if (200..280).contains(&stats.slot) {
            assert!(
                stats.budget <= 0.5 * budget * (1.0 + 1e-12),
                "brownout slot {} budget {}",
                stats.slot,
                stats.budget
            );
        }
        for x in [stats.demand, stats.granted, stats.backlog, stats.lost] {
            assert!(
                x.is_finite() && x >= 0.0,
                "slot {} stats finite",
                stats.slot
            );
        }
    }
    let summary = uplink.summary();
    assert_eq!(summary.outage_slots, 30);
    assert!(summary.lost_total > 0.0);
}

#[test]
fn degenerate_fleets_survive_faults() {
    // Zero sessions, faulted uplink: the run completes with empty
    // summaries and the outage still counts.
    let empty = Scenario::new(100)
        .with_uplink(UplinkSpec::new(5_000.0, UplinkPolicy::MaxWeightBacklog))
        .with_fault(FaultPlan::new().with_event(FaultEvent::Outage {
            start: 10,
            slots: 20,
        }));
    let run = run_contended(&empty);
    assert!(run.summaries.is_empty());
    assert!(run.downtime.is_empty());
    assert_eq!(run.uplink.slots, 100);
    assert_eq!(run.uplink.outage_slots, 20);
    assert_eq!(run.uplink.contended_slots, 0);
    assert_eq!(run.uplink.mean_granted, 0.0);

    // Zero slots: nothing runs, every mean is zero, nothing is NaN.
    let mut zero_slot = fleet(2, 0, 0x25);
    zero_slot = zero_slot
        .with_uplink(UplinkSpec::new(5_000.0, UplinkPolicy::ProportionalShare))
        .with_fault(FaultPlan::new().with_event(FaultEvent::SessionCrash {
            session: 0,
            slot: 0,
            restart_after: Some(1),
            policy: CrashPolicy::ColdRestart,
        }));
    let run = run_contended(&zero_slot);
    assert_eq!(run.uplink.slots, 0);
    assert_eq!(run.downtime, vec![0, 0]);
    for s in &run.summaries {
        assert_eq!(s.slots, 0);
        for x in [
            s.mean_quality,
            s.mean_backlog,
            s.backlog_p95,
            s.frame_latency_mean,
            s.dropped_total,
            s.depth_switch_rate,
        ] {
            assert!(x == 0.0, "zero-slot summary field is {x}");
        }
    }
    // Both degenerate scenarios still round-trip through their files.
    for scenario in [&empty, &zero_slot] {
        let text = scenario.to_json_string().unwrap();
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back.to_json_string().unwrap(), text);
    }
}

/// A random *valid* fault plan: windows anywhere, at most one loss stream
/// per session, per-session crash schedules ascending past each restart.
fn random_fault(rng: &mut StdRng, sessions: usize, slots: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..rng.gen_range(0..4) {
        let start = rng.gen_range(0..slots.max(1));
        let len = rng.gen_range(1..=slots.max(2) / 2);
        plan = if rng.gen_bool(0.5) {
            plan.with_event(FaultEvent::Outage { start, slots: len })
        } else {
            plan.with_event(FaultEvent::Brownout {
                start,
                slots: len,
                factor: rng.gen_range(0.0..=1.0),
            })
        };
    }
    for session in 0..sessions {
        if rng.gen_bool(0.3) {
            plan = plan.with_event(FaultEvent::GrantLoss {
                session,
                p: rng.gen_range(0.0..=1.0),
                seed: rng.gen(),
            });
        }
        if rng.gen_bool(0.4) && slots > 4 {
            let mut slot = rng.gen_range(0..slots);
            for _ in 0..2 {
                if rng.gen_bool(0.25) {
                    plan = plan.with_event(FaultEvent::SessionCrash {
                        session,
                        slot,
                        restart_after: None,
                        policy: CrashPolicy::Permanent,
                    });
                    break;
                }
                let restart_after = rng.gen_range(1..=slots / 2);
                plan = plan.with_event(FaultEvent::SessionCrash {
                    session,
                    slot,
                    restart_after: Some(restart_after),
                    policy: if rng.gen_bool(0.5) {
                        CrashPolicy::ColdRestart
                    } else {
                        CrashPolicy::WarmRestart
                    },
                });
                slot = slot + restart_after + rng.gen_range(1..=slots);
            }
        }
    }
    if rng.gen_bool(0.5) {
        let release_below = rng.gen_range(0.0..0.8);
        plan = plan.with_guard(DegradationGuardSpec {
            ema_alpha: rng.gen_range(0.01..1.0),
            engage_above: rng.gen_range(release_below..1.0),
            release_below,
            backlog_limit: if rng.gen_bool(0.5) {
                f64::INFINITY
            } else {
                rng.gen_range(1.0..1e9)
            },
            shed_fraction: rng.gen_range(0.05..1.0),
            mode: if rng.gen_bool(0.5) {
                ShedMode::Defer
            } else {
                ShedMode::Clamp {
                    factor: rng.gen_range(0.0..1.0),
                }
            },
        });
    }
    plan
}

#[test]
fn chaos_soak_random_fault_plans_never_panic_and_replay_exactly() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xC4A0_5000 + seed);
        let sessions = rng.gen_range(2..=5);
        let slots = rng.gen_range(50..=300u64);
        let mut scenario = fleet(sessions, slots, seed);
        let demand: f64 = scenario
            .sessions
            .iter()
            .map(|s| s.service.mean_rate())
            .sum();
        scenario = scenario.with_uplink(UplinkSpec::new(
            rng.gen_range(0.3..1.2) * demand,
            if rng.gen_bool(0.5) {
                UplinkPolicy::MaxWeightBacklog
            } else {
                UplinkPolicy::WeightedMaxWeight {
                    weights: (0..sessions).map(|i| 1.0 + (i % 3) as f64).collect(),
                }
            },
        ));
        let plan = random_fault(&mut rng, sessions, slots);
        let scenario = scenario.with_fault(plan);

        // The file round-trip stays canonical with faults aboard.
        let text = scenario.to_json_string().unwrap();
        let back = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}"));
        assert_eq!(
            back.to_json_string().unwrap(),
            text,
            "seed {seed} canonical"
        );

        // Both sides run without panicking, to bit-identical finite
        // summaries.
        let run_a = run_contended(&scenario);
        let run_b = run_contended(&back);
        assert_runs_bit_identical(&run_a, &run_b, &format!("seed {seed}"));
        for (i, s) in run_a.summaries.iter().enumerate() {
            for x in [
                s.mean_quality,
                s.mean_backlog,
                s.backlog_p95,
                s.backlog_p99,
                s.frame_latency_mean,
                s.frame_latency_p95,
                s.frame_latency_p99,
                s.dropped_total,
                s.depth_switch_rate,
            ] {
                assert!(x.is_finite(), "seed {seed} session {i}: non-finite {x}");
            }
        }
        let u = &run_a.uplink;
        for x in [
            u.mean_budget,
            u.mean_demand,
            u.mean_granted,
            u.mean_backlog,
            u.peak_backlog,
            u.lost_total,
        ] {
            assert!(x.is_finite(), "seed {seed}: non-finite uplink {x}");
        }
        assert!(
            u.down_session_slots <= sessions as u64 * slots,
            "seed {seed}"
        );
    }
}

#[test]
fn outage_recovery_headline_guard_protects_heavy_tenants() {
    // The E7 golden (weighted max-weight + deferring guard) against the
    // same faulted fleet admitted proportional-share with no guard. The
    // guard's contract is *differentiated* recovery, not a lower aggregate:
    // it feeds the heavy tenants by deferring the light ones, so the
    // top-weight survivor keeps premium quality through the diurnal troughs
    // and the 60-slot outage, while proportional share spreads the same
    // pain uniformly. Both fleets must still drain the outage backlog
    // promptly once the uplink returns.
    let guarded = scenario_preset("e7_fault_outage").unwrap();
    let mut ungoverned = guarded.clone();
    ungoverned.uplink.as_mut().unwrap().policy = UplinkPolicy::ProportionalShare;
    ungoverned.fault.as_mut().unwrap().guard = None;

    // Drive both by hand to watch the aggregate backlog trajectory around
    // the outage window (slots 800..860).
    let drive = |scenario: &Scenario| {
        let mut batch = SessionBatch::summary_only(scenario);
        let mut uplink = arvis::core::uplink::SharedUplink::with_fault(
            scenario.uplink.clone().unwrap(),
            scenario.fault.as_ref().unwrap(),
            scenario.sessions.len(),
        );
        let mut backlog = Vec::new();
        while !batch.is_done() {
            backlog.push(uplink.step_slot(&mut batch).backlog);
        }
        (batch.into_summaries(), uplink.summary(), backlog)
    };
    let (sum_guarded, up_guarded, traj_guarded) = drive(&guarded);
    let (sum_plain, up_plain, traj_plain) = drive(&ungoverned);
    assert!(up_guarded.shed_slots > 0, "the guard engaged");
    assert_eq!(up_plain.shed_slots, 0, "no guard, no shedding");

    // Session 3 is the top-weight (weight 4) tenant still alive at the
    // outage (session 7, the other weight-4 tenant, crashed permanently).
    let quality_ratio = sum_guarded[3].mean_quality / sum_plain[3].mean_quality;
    let recovery = |traj: &[f64]| {
        let pre_outage = traj[799];
        (860..traj.len())
            .find(|&t| traj[t] <= 1.1 * pre_outage)
            .map(|t| t - 860)
    };
    let rec_guarded = recovery(&traj_guarded);
    let rec_plain = recovery(&traj_plain);
    println!(
        "outage recovery: top-weight tenant mean quality {:.3} guarded vs {:.3} \
         proportional ({quality_ratio:.2}x); aggregate backlog back within 1.1x of \
         its pre-outage level {:?} vs {:?} slots after the uplink returns",
        sum_guarded[3].mean_quality, sum_plain[3].mean_quality, rec_guarded, rec_plain,
    );
    assert!(
        quality_ratio > 1.5,
        "guarded max-weight should hold the top-weight tenant well above \
         unguarded proportional share (ratio {quality_ratio:.3})"
    );
    for (name, rec) in [("guarded", rec_guarded), ("proportional", rec_plain)] {
        let slots = rec.unwrap_or_else(|| panic!("{name} fleet never drained the outage"));
        assert!(
            slots <= 30,
            "{name} fleet drained within 30 slots, took {slots}"
        );
    }
    // The trade is explicit: the deferred weight-1 tenants pay for the
    // premium tenant's quality.
    assert!(sum_guarded[0].mean_quality < sum_plain[0].mean_quality);
}
