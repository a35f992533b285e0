//! One rule, two routes: every rule a spec type's `validate()` enforces
//! gives the same message when the spec is decoded from its own file form,
//! and decoding places the error at the offending member.
//!
//! Each case builds, in Rust, a spec that breaks exactly one rule and still
//! encodes. `validate()` must panic with a message M, and decoding the
//! spec's canonical text must fail with the same M, at the position of the
//! member the rule concerns (found here by walking the parsed tree, not by
//! the codec's own path resolution).

use std::panic::{self, AssertUnwindSafe};

use arvis::core::churn::{ChurnArrivalSpec, ChurnSpec, LifetimeSpec};
use arvis::core::experiment::ExperimentConfig;
use arvis::core::fault::{CrashPolicy, DegradationGuardSpec, FaultEvent, FaultPlan, ShedMode};
use arvis::core::json::{self, Codec, JsonError, JsonKind, JsonValue, Pos};
use arvis::core::scenario::{ControllerSpec, SessionSpec};
use arvis::core::uplink::{BudgetProfile, BudgetStep, UplinkPolicy, UplinkVAdaptSpec};
use arvis::quality::DepthProfile;

/// Sessions in the fleet every fault plan is checked against.
const FLEET: usize = 2;

/// One broken rule: how to validate the spec, its file form, what
/// decoding that form reported, and the rule it must report.
struct Case {
    validate: Box<dyn Fn()>,
    text: String,
    decoded: Result<(), JsonError>,
    /// Where the offending member sits in the parsed file form.
    member: Pos,
    /// A fragment the message must contain (pins the intended rule).
    fragment: &'static str,
}

/// `path` is the offending member's dotted path (`""`: the spec itself).
fn case<T: Codec + 'static>(
    spec: T,
    validate: fn(&T),
    decode: fn(&JsonValue) -> Result<T, JsonError>,
    path: &str,
    fragment: &'static str,
) -> Case {
    let text = json::to_string(&spec).expect("the spec encodes");
    let tree = json::parse(&text).expect("the file form parses");
    Case {
        decoded: decode(&tree).map(|_| ()),
        member: member_pos(&tree, path),
        validate: Box::new(move || validate(&spec)),
        text,
        fragment,
    }
}

fn budget(spec: BudgetProfile, path: &'static str, fragment: &'static str) -> Case {
    case(
        spec,
        BudgetProfile::validate,
        BudgetProfile::decode,
        path,
        fragment,
    )
}

fn policy(spec: UplinkPolicy, path: &'static str, fragment: &'static str) -> Case {
    case(
        spec,
        UplinkPolicy::validate,
        UplinkPolicy::decode,
        path,
        fragment,
    )
}

fn guard(spec: DegradationGuardSpec, path: &'static str, fragment: &'static str) -> Case {
    case(
        spec,
        DegradationGuardSpec::validate,
        DegradationGuardSpec::decode,
        path,
        fragment,
    )
}

fn plan(events: Vec<FaultEvent>, path: &'static str, fragment: &'static str) -> Case {
    let spec = FaultPlan {
        events,
        guard: None,
    };
    case(
        spec,
        |p| p.validate(FLEET),
        |v| FaultPlan::from_json(v, FLEET),
        path,
        fragment,
    )
}

fn churn(spec: ChurnSpec, path: &'static str, fragment: &'static str) -> Case {
    case(
        spec,
        ChurnSpec::validate,
        ChurnSpec::from_json,
        path,
        fragment,
    )
}

fn good_guard() -> DegradationGuardSpec {
    DegradationGuardSpec {
        ema_alpha: 0.1,
        engage_above: 0.8,
        release_below: 0.4,
        backlog_limit: f64::INFINITY,
        shed_fraction: 0.25,
        mode: ShedMode::Defer,
    }
}

fn template(controller: ControllerSpec) -> SessionSpec {
    let profile = DepthProfile::from_parts(5, vec![100.0, 400.0], vec![0.0, 1.0]);
    SessionSpec::from_config(&ExperimentConfig::new(profile, 500.0, 10), controller)
}

fn poisson() -> ChurnArrivalSpec {
    ChurnArrivalSpec::Poisson {
        lambda: 0.5,
        seed: 1,
    }
}

fn joins() -> ChurnSpec {
    ChurnSpec::new().with_arrivals(poisson(), template(ControllerSpec::OnlyMax), 4)
}

fn crash(session: usize, slot: u64, restart_after: Option<u64>, policy: CrashPolicy) -> FaultEvent {
    FaultEvent::SessionCrash {
        session,
        slot,
        restart_after,
        policy,
    }
}

fn cases() -> Vec<Case> {
    let step = |start, budget| BudgetStep { start, budget };
    let outage = |start, slots| FaultEvent::Outage { start, slots };
    let loss = |session, p| FaultEvent::GrantLoss {
        session,
        p,
        seed: 7,
    };
    let cold = CrashPolicy::ColdRestart;
    let diurnal = |mean, amplitude, period| BudgetProfile::Diurnal {
        mean,
        amplitude,
        period,
        phase: 0.0,
    };
    vec![
        budget(BudgetProfile::Constant(-5.0), "budget", "bad budget -5"),
        budget(diurnal(-1.0, 0.0, 10), "mean", "bad diurnal mean"),
        budget(diurnal(10.0, 11.0, 10), "amplitude", "diurnal amplitude"),
        budget(diurnal(10.0, 5.0, 0), "period", "period must be positive"),
        budget(
            BudgetProfile::PiecewiseSteps(vec![]),
            "steps",
            "at least one budget step",
        ),
        budget(
            BudgetProfile::PiecewiseSteps(vec![step(3, 1.0)]),
            "steps.0.start",
            "start at slot 0",
        ),
        budget(
            BudgetProfile::PiecewiseSteps(vec![step(0, 1.0), step(0, 2.0)]),
            "steps.1.start",
            "strictly ascending starts",
        ),
        budget(
            BudgetProfile::PiecewiseSteps(vec![step(0, 1.0), step(5, -2.0)]),
            "steps.1.budget",
            "bad budget -2",
        ),
        budget(
            BudgetProfile::Trace(vec![]),
            "budgets",
            "at least one traced budget",
        ),
        budget(
            BudgetProfile::Trace(vec![1.0, -3.0]),
            "budgets.1",
            "bad budget -3",
        ),
        policy(
            UplinkPolicy::WeightedMaxWeight { weights: vec![] },
            "weights",
            "at least one weight",
        ),
        policy(
            UplinkPolicy::WeightedMaxWeight {
                weights: vec![1.0, 0.0],
            },
            "weights.1",
            "bad max-weight weight 0",
        ),
        policy(
            UplinkPolicy::AlphaFair { alpha: 0.5 },
            "alpha",
            "alpha must be >= 1",
        ),
        guard(
            DegradationGuardSpec {
                ema_alpha: 0.0,
                ..good_guard()
            },
            "ema_alpha",
            "ema_alpha must be in (0, 1]",
        ),
        guard(
            DegradationGuardSpec {
                release_below: 0.9,
                ..good_guard()
            },
            "release_below",
            "release_below <= engage_above",
        ),
        guard(
            DegradationGuardSpec {
                backlog_limit: 0.0,
                ..good_guard()
            },
            "backlog_limit",
            "backlog_limit must be positive",
        ),
        guard(
            DegradationGuardSpec {
                shed_fraction: 0.0,
                ..good_guard()
            },
            "shed_fraction",
            "shed_fraction must be in (0, 1]",
        ),
        guard(
            DegradationGuardSpec {
                mode: ShedMode::Clamp { factor: 1.0 },
                ..good_guard()
            },
            "mode.factor",
            "clamp factor must be in [0, 1)",
        ),
        plan(vec![outage(5, 0)], "events.0", "at least one slot"),
        plan(
            vec![outage(u64::MAX, 1)],
            "events.0",
            "window end overflows",
        ),
        plan(
            vec![FaultEvent::Brownout {
                start: 0,
                slots: 5,
                factor: 2.0,
            }],
            "events.0",
            "brownout factor",
        ),
        plan(vec![loss(FLEET, 0.5)], "events.0", "out of range"),
        plan(vec![loss(0, 2.0)], "events.0", "loss probability"),
        plan(
            vec![loss(0, 0.1), loss(0, 0.2)],
            "events.1",
            "already has a grant_loss",
        ),
        plan(
            vec![crash(FLEET, 3, Some(1), cold)],
            "events.0",
            "out of range",
        ),
        plan(
            vec![crash(0, 3, Some(1), CrashPolicy::Permanent)],
            "events.0",
            "takes no restart_after",
        ),
        plan(
            vec![crash(0, 3, None, cold)],
            "events.0",
            "requires restart_after",
        ),
        plan(vec![crash(0, 3, Some(0), cold)], "events.0", "at least 1"),
        plan(
            vec![crash(0, u64::MAX, Some(1), cold)],
            "events.0",
            "restart slot overflows",
        ),
        plan(
            vec![
                crash(0, 3, None, CrashPolicy::Permanent),
                crash(0, 9, Some(1), cold),
            ],
            "events.1",
            "nothing can follow",
        ),
        plan(
            vec![crash(0, 9, Some(1), cold), crash(0, 3, Some(1), cold)],
            "events.1",
            "strictly ascending slots",
        ),
        plan(
            vec![crash(0, 3, Some(10), cold), crash(0, 5, Some(1), cold)],
            "events.1",
            "overlaps the previous downtime",
        ),
        case(
            FaultPlan::new().with_guard(DegradationGuardSpec {
                ema_alpha: 2.0,
                ..good_guard()
            }),
            |p| p.validate(FLEET),
            |v| FaultPlan::from_json(v, FLEET),
            "guard.ema_alpha",
            "guard ema_alpha must be in (0, 1]",
        ),
        churn(
            ChurnSpec::new().with_arrivals(
                ChurnArrivalSpec::Poisson {
                    lambda: -1.0,
                    seed: 1,
                },
                template(ControllerSpec::OnlyMax),
                4,
            ),
            "arrivals.lambda",
            "poisson lambda",
        ),
        churn(
            ChurnSpec::new().with_arrivals(
                ChurnArrivalSpec::Mmpp2 {
                    lambda_low: 0.1,
                    lambda_high: 1.0,
                    switch_up: 2.0,
                    switch_down: 0.5,
                    seed: 1,
                },
                template(ControllerSpec::OnlyMax),
                4,
            ),
            "arrivals.switch_up",
            "mmpp2 switch_up",
        ),
        churn(
            ChurnSpec::new().with_arrivals(
                ChurnArrivalSpec::Trace { counts: vec![] },
                template(ControllerSpec::OnlyMax),
                4,
            ),
            "arrivals.counts",
            "traced join count",
        ),
        churn(
            ChurnSpec {
                template: None,
                ..joins()
            },
            "arrivals",
            "require a session template",
        ),
        // A zero `max_joins` is written by omission: the error sits on the
        // churn object itself.
        churn(
            ChurnSpec {
                max_joins: 0,
                ..joins()
            },
            "",
            "require max_joins >= 1",
        ),
        churn(
            ChurnSpec {
                template: Some(template(ControllerSpec::OnlyMax)),
                ..ChurnSpec::new()
            },
            "template",
            "template requires arrivals",
        ),
        churn(
            ChurnSpec {
                max_joins: 3,
                ..ChurnSpec::new()
            },
            "max_joins",
            "max_joins without arrivals",
        ),
        churn(
            ChurnSpec::new().with_weight(2.0),
            "weight",
            "churn weight requires arrivals",
        ),
        churn(joins().with_weight(-1.0), "weight", "finite and positive"),
        churn(
            ChurnSpec::new().with_arrivals(
                poisson(),
                template(ControllerSpec::OnlyMax).with_uplink_v_adapt(UplinkVAdaptSpec::default()),
                4,
            ),
            "template.uplink_v_adapt",
            "uplink_v_adapt requires a proposed controller",
        ),
        churn(
            ChurnSpec::new().with_lifetime(LifetimeSpec::Fixed { slots: 0 }),
            "lifetime.slots",
            "at least 1 slot",
        ),
        churn(
            ChurnSpec::new().with_lifetime(LifetimeSpec::Geometric { mean: 0.5, seed: 1 }),
            "lifetime.mean",
            "geometric mean",
        ),
        churn(
            ChurnSpec::new().with_lifetime(LifetimeSpec::Uniform {
                min: 9,
                max: 3,
                seed: 1,
            }),
            "lifetime.min",
            "1 <= min <= max",
        ),
    ]
}

/// The position of the member at `path` (dot-separated keys and array
/// indices), walked independently of the codec.
fn member_pos(root: &JsonValue, path: &str) -> Pos {
    let mut here = root;
    for step in path.split('.').filter(|s| !s.is_empty()) {
        here = match &here.kind {
            JsonKind::Obj(members) => {
                &members
                    .iter()
                    .find(|m| m.key == step)
                    .unwrap_or_else(|| panic!("no member {step} in {path}"))
                    .value
            }
            JsonKind::Arr(items) => &items[step.parse::<usize>().expect("an index")],
            _ => panic!("{path} walks into a scalar"),
        };
    }
    here.pos
}

fn panic_message(validate: &dyn Fn()) -> Option<String> {
    let payload = panic::catch_unwind(AssertUnwindSafe(validate)).err()?;
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
}

#[test]
fn every_rule_reports_one_message_on_both_routes() {
    let quiet = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let outcomes: Vec<_> = cases()
        .into_iter()
        .map(|c| (panic_message(&*c.validate), c))
        .collect();
    panic::set_hook(quiet);

    for (panicked, c) in outcomes {
        let want = panicked.unwrap_or_else(|| panic!("validate() accepted:\n{}", c.text));
        assert!(
            want.contains(c.fragment),
            "validate() broke another rule: {want:?}, expected {:?}",
            c.fragment
        );
        let err = c.decoded.expect_err(&want);
        assert_eq!(err.msg, want, "the two routes disagree on:\n{}", c.text);
        assert_eq!(
            err.pos,
            Some(c.member),
            "{want}: not at its member in:\n{}",
            c.text
        );
    }
}
