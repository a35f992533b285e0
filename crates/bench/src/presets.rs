//! The E1–E8 extension experiments as declarative scenario presets.
//!
//! Each preset is a pure function of nothing — the same construction every
//! time, on the same [`crate::paper_profile`] workload at a fixed point
//! count and seed — so its JSON form ([`arvis_core::Scenario::to_json_string`])
//! is stable byte-for-byte. The checked-in `scenarios/*.json` golden files
//! are exactly these presets dumped by `experiments emit` (regenerate with
//! `experiments emit all --dir scenarios`), and `tests/scenario_files.rs`
//! pins both directions: the files parse back to these scenarios, and
//! running either side produces bit-identical metrics.
//!
//! The presets deliberately run a *reduced* workload (20k-point profile,
//! shortened horizons) compared to the figure-regeneration subcommands of
//! the `experiments` binary: golden replay wants seconds, not minutes, and
//! conformance only needs the construction to be exact, not large.

use arvis_core::churn::{ChurnArrivalSpec, ChurnSpec, LifetimeSpec};
use arvis_core::experiment::ServiceSpec;
use arvis_core::fault::{CrashPolicy, DegradationGuardSpec, FaultEvent, FaultPlan, ShedMode};
use arvis_core::scenario::{ControllerSpec, FleetSpec, Scenario, SessionSpec};
use arvis_core::uplink::{BudgetProfile, UplinkPolicy, UplinkSpec, UplinkVAdaptSpec};
use arvis_sim::rng::child_seed;

use crate::{fig2_config, log_grid, paper_profile};

/// Point count of the preset workload's synthetic frame (kept small so
/// golden replay is fast; the figure subcommands use 200k).
pub const PRESET_POINTS: usize = 20_000;

/// RNG seed of the preset workload.
pub const PRESET_SEED: u64 = 1;

/// Every scenario preset name, in emission order.
pub const SCENARIO_PRESETS: &[&str] = &[
    "e1_fig2",
    "e2_v_sweep",
    "e3_rate_sweep",
    "e4_fleet",
    "e5_shared_uplink",
    "e6_diurnal_adaptive",
    "e7_fault_outage",
    "e8_churn",
];

/// Builds a preset scenario by name (`None` for unknown names; see
/// [`SCENARIO_PRESETS`]).
pub fn scenario_preset(name: &str) -> Option<Scenario> {
    let cfg =
        fig2_config(paper_profile(PRESET_POINTS, PRESET_SEED).expect("the preset frame profiles"));
    Some(match name {
        // E1 / Fig. 2: the paper's three-way comparison — proposed vs
        // only-max vs only-min on one device.
        "e1_fig2" => {
            let v = cfg.controller_v;
            Scenario::new(cfg.slots)
                .with_session(SessionSpec::from_config(
                    &cfg,
                    ControllerSpec::Proposed { v },
                ))
                .with_session(SessionSpec::from_config(&cfg, ControllerSpec::OnlyMax))
                .with_session(SessionSpec::from_config(&cfg, ControllerSpec::OnlyMin))
        }
        // E2: the quality–delay trade-off traced by sweeping V two decades
        // around the calibrated operating point.
        "e2_v_sweep" => {
            let mut cfg = cfg;
            cfg.slots = 1_600;
            let center = cfg.controller_v;
            Scenario::v_sweep(&cfg, &log_grid(center / 100.0, center * 100.0, 13))
        }
        // E3: robustness across service rates spanning sustainable
        // min-depth to unsustainable max-depth.
        "e3_rate_sweep" => {
            let mut cfg = cfg;
            cfg.slots = 3_200;
            cfg.warmup = cfg.slots / 2;
            let profile = cfg.stream.profile_at(0).into_owned();
            let rates = log_grid(profile.arrival(5) * 1.2, profile.arrival(10) * 1.2, 11);
            Scenario::rate_sweep(&cfg, &rates)
        }
        // E4: the distributed fleet — 16 devices, rates spread ±40%.
        "e4_fleet" => {
            let mut cfg = cfg;
            cfg.slots = 3_200;
            cfg.warmup = cfg.slots / 2;
            Scenario::fleet(&cfg, FleetSpec::heterogeneous(16, 0.8))
        }
        // E5: shared-uplink contention — 8 heterogeneous proposed-scheduler
        // tenants against one constant backhaul covering 70% of demand,
        // admitted largest-queue-first.
        "e5_shared_uplink" => {
            let scenario = contended_fleet(&cfg, 8);
            let demand: f64 = scenario
                .sessions
                .iter()
                .map(|s| s.service.mean_rate())
                .sum();
            scenario.with_uplink(UplinkSpec::new(
                0.7 * demand,
                UplinkPolicy::MaxWeightBacklog,
            ))
        }
        // E6: the diurnal-uplink + adaptive-V fleet — the same 8 tenants
        // under a day/night backhaul (mean 60% of demand, 15% trough),
        // weighted max-weight admission, every tenant shedding quality via
        // uplink-aware V adaptation instead of queueing through the trough.
        "e6_diurnal_adaptive" => {
            let mut scenario = contended_fleet(&cfg, 8);
            let demand: f64 = scenario
                .sessions
                .iter()
                .map(|s| s.service.mean_rate())
                .sum();
            for spec in scenario.sessions.iter_mut() {
                spec.uplink_v_adapt = Some(UplinkVAdaptSpec::default());
            }
            let n = scenario.len();
            scenario.with_uplink(UplinkSpec::with_profile(
                BudgetProfile::Diurnal {
                    mean: 0.6 * demand,
                    amplitude: 0.45 * demand,
                    period: 200,
                    phase: 0.0,
                },
                UplinkPolicy::WeightedMaxWeight {
                    weights: (0..n).map(|i| 1.0 + (i % 4) as f64).collect(),
                },
            ))
        }
        // E7: the E6 diurnal fleet under faults — a mid-run uplink outage,
        // one cold-restarting and one permanently crashing tenant, lossy
        // grants on a third, and a degradation guard deferring the
        // lowest-weight tenants when the smoothed contention saturates.
        "e7_fault_outage" => {
            let mut scenario = contended_fleet(&cfg, 8);
            let demand: f64 = scenario
                .sessions
                .iter()
                .map(|s| s.service.mean_rate())
                .sum();
            for spec in scenario.sessions.iter_mut() {
                spec.uplink_v_adapt = Some(UplinkVAdaptSpec::default());
            }
            let n = scenario.len();
            scenario
                .with_uplink(UplinkSpec::with_profile(
                    BudgetProfile::Diurnal {
                        mean: 0.6 * demand,
                        amplitude: 0.45 * demand,
                        period: 200,
                        phase: 0.0,
                    },
                    UplinkPolicy::WeightedMaxWeight {
                        weights: (0..n).map(|i| 1.0 + (i % 4) as f64).collect(),
                    },
                ))
                .with_fault(
                    FaultPlan::new()
                        .with_event(FaultEvent::Outage {
                            start: 800,
                            slots: 60,
                        })
                        .with_event(FaultEvent::SessionCrash {
                            session: 3,
                            slot: 400,
                            restart_after: Some(120),
                            policy: CrashPolicy::ColdRestart,
                        })
                        .with_event(FaultEvent::SessionCrash {
                            session: 7,
                            slot: 600,
                            restart_after: None,
                            policy: CrashPolicy::Permanent,
                        })
                        .with_event(FaultEvent::GrantLoss {
                            session: 2,
                            p: 0.05,
                            seed: 77,
                        })
                        .with_guard(DegradationGuardSpec {
                            ema_alpha: 0.05,
                            engage_above: 0.9,
                            release_below: 0.6,
                            backlog_limit: f64::INFINITY,
                            shed_fraction: 0.25,
                            mode: ShedMode::Defer,
                        }),
                )
        }
        // E8: session churn — 6 weighted tenants against a constant
        // backhaul, with open-loop Poisson joins (capped at 12), geometric
        // lifetimes around a third of the horizon, and SoA compaction of
        // departed tenants (bitwise invisible; see `arvis_core::churn`).
        "e8_churn" => {
            let scenario = contended_fleet(&cfg, 6);
            let demand: f64 = scenario
                .sessions
                .iter()
                .map(|s| s.service.mean_rate())
                .sum();
            let n = scenario.len();
            let slots = scenario.slots;
            let mut template = scenario.sessions[0].clone();
            template.service = ServiceSpec::Constant(cfg.service.mean_rate());
            template.seed = 0xE8;
            scenario
                .with_uplink(UplinkSpec::new(
                    0.7 * demand,
                    UplinkPolicy::WeightedMaxWeight {
                        weights: (0..n).map(|i| 1.0 + (i % 4) as f64).collect(),
                    },
                ))
                .with_churn(
                    ChurnSpec::new()
                        .with_arrivals(
                            ChurnArrivalSpec::Poisson {
                                lambda: 0.01,
                                seed: 0xE8_11,
                            },
                            template,
                            12,
                        )
                        .with_weight(2.0)
                        .with_lifetime(LifetimeSpec::Geometric {
                            mean: (slots / 3) as f64,
                            seed: 0xE8_13,
                        })
                        .with_compaction(true),
                )
        }
        _ => return None,
    })
}

/// The shared contended-fleet substrate of E5/E6: `devices` proposed
/// controllers at the calibrated `V`, service rates spread ±40% around the
/// Fig. 2 operating point, decorrelated seeds, bounded latency trackers
/// (contention can push a tenant past its stability region).
fn contended_fleet(cfg: &arvis_core::ExperimentConfig, devices: usize) -> Scenario {
    let mut cfg = cfg.clone();
    cfg.slots = 1_600;
    cfg.warmup = cfg.slots / 4;
    let base_rate = cfg.service.mean_rate();
    let mut scenario = Scenario::new(cfg.slots);
    for i in 0..devices {
        let frac = i as f64 / (devices - 1) as f64;
        let mut spec = SessionSpec::from_config(
            &cfg,
            ControllerSpec::Proposed {
                v: cfg.controller_v,
            },
        );
        spec.service = ServiceSpec::Constant(base_rate * (0.6 + 0.8 * frac));
        spec.seed = child_seed(0xF1EE8, i as u64);
        spec.frame_cap = Some(8_192);
        scenario.sessions.push(spec);
    }
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_builds_and_encodes() {
        for &name in SCENARIO_PRESETS {
            let scenario = scenario_preset(name).expect(name);
            assert!(!scenario.is_empty(), "{name} has sessions");
            let text = scenario.to_json_string().expect(name);
            let back = Scenario::from_json_str(&text).expect(name);
            assert_eq!(back.to_json_string().unwrap(), text, "{name} canonical");
        }
        assert!(scenario_preset("nope").is_none());
    }

    #[test]
    fn uplink_presets_declare_contention() {
        assert!(scenario_preset("e5_shared_uplink")
            .unwrap()
            .uplink
            .is_some());
        let e6 = scenario_preset("e6_diurnal_adaptive").unwrap();
        assert!(e6.sessions.iter().all(|s| s.uplink_v_adapt.is_some()));
        assert!(matches!(
            e6.uplink.as_ref().unwrap().budget,
            BudgetProfile::Diurnal { .. }
        ));
    }

    #[test]
    fn fault_preset_declares_the_fault_plan() {
        let e7 = scenario_preset("e7_fault_outage").unwrap();
        let fault = e7.fault.as_ref().expect("e7 has a fault plan");
        assert_eq!(fault.events.len(), 4);
        assert!(fault.guard.is_some());
        // E1–E6 stay fault-free and churn-free and therefore schema-1 on
        // disk.
        for &name in SCENARIO_PRESETS
            .iter()
            .filter(|&&n| n != "e7_fault_outage" && n != "e8_churn")
        {
            let scenario = scenario_preset(name).unwrap();
            assert!(scenario.fault.is_none(), "{name} must stay fault-free");
            assert!(scenario.churn.is_none(), "{name} must stay churn-free");
            let text = scenario.to_json_string().unwrap();
            assert!(text.starts_with("{\n  \"schema\": 1,"), "{name} schema 1");
        }
        let text = e7.to_json_string().unwrap();
        assert!(text.starts_with("{\n  \"schema\": 2,"), "e7 schema 2");
    }

    #[test]
    fn churn_preset_declares_joins_departures_and_compaction() {
        let e8 = scenario_preset("e8_churn").unwrap();
        let churn = e8.churn.as_ref().expect("e8 has churn");
        assert!(churn.arrivals.is_some());
        assert!(churn.template.is_some());
        assert!(churn.lifetime.is_some());
        assert!(churn.compact);
        assert_eq!(churn.weight, Some(2.0), "weighted uplink needs a weight");
        assert!(matches!(
            e8.uplink.as_ref().unwrap().policy,
            UplinkPolicy::WeightedMaxWeight { .. }
        ));
        let text = e8.to_json_string().unwrap();
        assert!(text.starts_with("{\n  \"schema\": 3,"), "e8 schema 3");
    }
}
