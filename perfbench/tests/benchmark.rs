//! Tests of the benchmark itself: generator purity, a smoke size of every
//! workload with all checks, the traced re-drives matching the untraced
//! runs bitwise, and the metric catalog matching `BENCHMARK.json`.

use arvis_core::json::{parse, JsonKind, JsonValue};
use arvis_core::scenario::Scenario;
use perfbench::gen::{
    cell_scenario, fleet_scenario, frames, CellShape, FleetShape, PipelineShape, Size,
};
use perfbench::{run, MetricDef, Workload, END_TO_END, PER_LAYER};

#[test]
fn generators_are_pure_functions_of_the_seed() {
    let fleet = FleetShape::of(Size::Smoke);
    let a = fleet_scenario(5, &fleet);
    assert_eq!(a, fleet_scenario(5, &fleet), "same seed, same bytes");
    let b = fleet_scenario(6, &fleet);
    assert_ne!(a, b, "another seed changes the content");
    let (sa, sb) = (
        Scenario::from_json_str(&a).unwrap(),
        Scenario::from_json_str(&b).unwrap(),
    );
    assert_eq!((sa.len(), sa.slots), (fleet.sessions, fleet.slots));
    assert_eq!((sb.len(), sb.slots), (fleet.sessions, fleet.slots));
    assert!(sa.uplink.is_none() && sa.fault.is_none() && sa.churn.is_none());

    let cell = CellShape::of(Size::Smoke);
    let a = cell_scenario(5, &cell);
    assert_eq!(a, cell_scenario(5, &cell));
    let b = cell_scenario(6, &cell);
    assert_ne!(a, b);
    for text in [&a, &b] {
        let s = Scenario::from_json_str(text).unwrap();
        assert_eq!((s.len(), s.slots), (cell.tenants, cell.slots));
        let plan = s.fault.as_ref().expect("the cell has a fault plan");
        assert_eq!(
            plan.events.len(),
            6,
            "outage, brownout and four grant losses"
        );
        assert!(s.uplink.is_some() && s.churn.is_some());
    }

    let shape = PipelineShape::of(Size::Smoke);
    let a = frames(5, &shape);
    assert_eq!(a, frames(5, &shape));
    let b = frames(6, &shape);
    assert_ne!(a, b);
    assert_eq!(a.len(), shape.frames);
    assert_eq!(
        a.iter().map(|f| f.len()).collect::<Vec<_>>(),
        b.iter().map(|f| f.len()).collect::<Vec<_>>(),
        "the same shape: point counts per frame"
    );
}

#[test]
fn smoke_size_runs_every_workload_with_all_checks() {
    for w in Workload::ALL {
        let out = run(w, 3, 0.0, false, Size::Smoke, None);
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
        assert!(
            out.attempted >= 4,
            "{}: warm-up plus three measured",
            w.name()
        );
        for d in END_TO_END {
            let v = out.metrics.get(d.name).copied().unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{}: {} = {v}", w.name(), d.name);
        }
    }
}

#[test]
fn traced_redrives_match_the_untraced_runs_bitwise() {
    for w in Workload::ALL {
        let out = run(w, 4, 0.0, true, Size::Smoke, None);
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
        assert_eq!(
            out.metrics.get("trace.divergent"),
            Some(&0.0),
            "{}",
            w.name()
        );
        assert!(out.metrics.get("par.workers_us").is_some_and(|&v| v > 0.0));
    }
}

fn catalog(root: &JsonValue, key: &str) -> Vec<(String, String, String)> {
    let JsonKind::Obj(members) = &root.kind else {
        panic!("BENCHMARK.json is an object");
    };
    let list = members
        .iter()
        .find(|m| m.key == key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"));
    list.value
        .as_array()
        .expect("a list of metrics")
        .iter()
        .map(|item| {
            let JsonKind::Obj(fields) = &item.kind else {
                panic!("{key} entries are objects");
            };
            let get = |name: &str| -> String {
                let field = fields.iter().find(|m| m.key == name);
                let field = field.unwrap_or_else(|| panic!("{key} entry lacks {name}"));
                field.value.as_str().expect("a string").to_string()
            };
            (get("name"), get("unit"), get("better"))
        })
        .collect()
}

fn defs(list: &[MetricDef]) -> Vec<(String, String, String)> {
    list.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn metric_catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let root = parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(catalog(&root, "end_to_end"), defs(END_TO_END));
    assert_eq!(catalog(&root, "per_layer"), defs(PER_LAYER));
}
