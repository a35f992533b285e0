//! The `experiments` binary's scenario-file interface, end to end as a
//! child process: malformed input must exit nonzero with a positioned
//! error on stderr (never a panic, never a silent success), a valid
//! faulted scenario must run and report its fault aggregates, and the
//! regression-ledger surface (`verify`, `--record`, `--from-raw`) must
//! pin its exit codes — 0 on a clean tree, 1 with a field-level diff on
//! tampered entries, 1 with a positioned error on malformed ledger JSON.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("arvis-cli-{}-{name}", std::process::id()));
    let mut file = std::fs::File::create(&path).unwrap();
    file.write_all(contents.as_bytes()).unwrap();
    path
}

/// A fresh empty directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arvis-cli-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The repository root (this crate lives at `crates/bench`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A minimal valid schema-1 scenario: one fast-to-replay session.
const MINI_SCENARIO: &str = "{\"schema\": 1, \"slots\": 50, \"sessions\": [{\
     \"stream\": {\"type\": \"constant\", \"profile\": {\"min_depth\": 5, \
     \"arrivals\": [100, 400], \"quality\": [0, 1]}}, \
     \"service\": {\"type\": \"constant\", \"rate\": 500}, \
     \"controller\": {\"type\": \"only_min\"}, \"seed\": 0, \"warmup\": 0}]}";

#[test]
fn run_rejects_malformed_scenarios_with_positioned_errors() {
    // Truncated JSON: the error must carry the file path and a
    // line:column position, and the exit status must be nonzero.
    let path = write_temp("truncated.json", "{\n  \"schema\": 1,\n  \"slots\": }\n");
    let out = experiments()
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "malformed file must fail: {stderr}");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr.contains(path.to_str().unwrap()),
        "error names the file: {stderr}"
    );
    assert!(
        stderr.contains("line 3, column"),
        "error carries line 3: {stderr}"
    );
    std::fs::remove_file(&path).ok();

    // A schema-1 file smuggling a fault plan: the versioning error is
    // specific, not a generic parse failure.
    let path = write_temp(
        "schema1-fault.json",
        "{\n  \"schema\": 1,\n  \"slots\": 10,\n  \"sessions\": [],\n  \"fault\": {\"events\": []}\n}\n",
    );
    let out = experiments()
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("requires schema version 2"),
        "versioning error is specific: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_reports_missing_files_and_usage_errors() {
    let out = experiments()
        .args(["run", "/nonexistent/scenario.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/scenario.json"));

    let out = experiments().arg("run").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// A bad figure-subcommand flag value exits 2 with one line naming the
/// flag and the value, never a panic: a non-integer, a zero horizon, and
/// point counts too small to profile the candidate depths (flat arrivals)
/// or to separate the two deepest ones (no Fig. 2 knee).
#[test]
fn figure_subcommands_reject_bad_flag_values() {
    let results = temp_dir("rejected");
    for args in [
        ["fig2", "--points", "lots"],
        ["fig2", "--slots", "1.5"],
        ["fig2", "--seed", "-1"],
        ["fig2", "--slots", "0"],
        ["fig2", "--points", "20"],
        ["fig2", "--points", "300"],
    ] {
        let out = experiments()
            .env("ARVIS_RESULTS_DIR", &results)
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{} {}: ", args[1], args[2])),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn run_executes_the_faulted_golden_scenario() {
    let results = temp_dir("e7-results");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/e7_fault_outage.json");
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "e7 golden must run: {stderr}");
    assert!(
        stderr.contains("contended"),
        "faulted runs are contended: {stderr}"
    );
    assert!(
        stderr.contains("shed slots"),
        "fault aggregates reported: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header = stdout.lines().next().unwrap_or_default();
    assert!(
        header.contains("downtime_slots"),
        "CSV carries downtime: {header}"
    );
    assert!(
        header.contains("uplink_shed_slots"),
        "CSV carries shed: {header}"
    );
    // Header and every row agree on the column count.
    let columns = header.split(',').count();
    for line in stdout.lines().skip(1).filter(|l| !l.is_empty()) {
        assert_eq!(line.split(',').count(), columns, "ragged CSV row: {line}");
    }
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn verify_passes_on_the_committed_tree() {
    // The CI gate, exactly as the workflow runs it: every committed golden
    // must replay bit-identically to the committed ledger.
    let root = repo_root();
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", root.join("results"))
        .args(["verify", root.join("scenarios").to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean tree must verify: {stderr}"
    );
    assert!(
        stderr.contains("8 scenario(s), 0 failure(s)"),
        "all eight goldens checked: {stderr}"
    );
}

#[test]
fn verify_fails_with_a_field_level_diff_on_a_tampered_ledger_entry() {
    // One scenario (E1, the fastest golden), the committed ledger with one
    // digit of one float flipped: verify must exit 1 and name the exact
    // field path with both values.
    let scenarios = temp_dir("tamper-scenarios");
    let results = temp_dir("tamper-results");
    let root = repo_root();
    std::fs::copy(
        root.join("scenarios/e1_fig2.json"),
        scenarios.join("e1_fig2.json"),
    )
    .unwrap();
    let ledger = std::fs::read_to_string(root.join("results/ledger.json")).unwrap();
    // The first mean_quality in the file belongs to the first (sorted)
    // record, e1_fig2's sessions[0]; move it by far more than one ulp.
    let needle = "\"mean_quality\": 0.";
    assert!(ledger.contains(needle), "ledger carries float fields");
    let tampered = ledger.replacen(needle, "\"mean_quality\": 0.1", 1);
    assert_ne!(tampered, ledger);
    std::fs::write(results.join("ledger.json"), tampered).unwrap();

    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["verify", scenarios.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "tampered entry must fail: {stderr}"
    );
    assert!(
        stderr.contains("sessions[0].mean_quality: ledger 0.1"),
        "diff names the field path and the ledger value: {stderr}"
    );
    assert!(
        stderr.contains("!= replay 0."),
        "diff carries the replayed value: {stderr}"
    );
    assert!(
        stderr.contains("regenerate: experiments run"),
        "failure prints the regeneration command: {stderr}"
    );
    std::fs::remove_dir_all(&scenarios).ok();
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn verify_reports_positioned_errors_on_malformed_ledger_json() {
    let scenarios = temp_dir("badledger-scenarios");
    let results = temp_dir("badledger-results");
    std::fs::write(scenarios.join("mini.json"), MINI_SCENARIO).unwrap();

    // Truncated ledger JSON: exit 1 with a line/column parse error.
    std::fs::write(
        results.join("ledger.json"),
        "{\n  \"schema\": 1,\n  \"records\": [\n",
    )
    .unwrap();
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["verify", scenarios.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("ledger.json"),
        "error names the file: {stderr}"
    );
    assert!(stderr.contains("line 4"), "error is positioned: {stderr}");

    // Unknown key: same contract, at the key's own position.
    std::fs::write(
        results.join("ledger.json"),
        "{\n  \"schema\": 1,\n  \"records\": [],\n  \"extra\": 0\n}\n",
    )
    .unwrap();
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["verify", scenarios.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown key \"extra\"") && stderr.contains("line 4"),
        "unknown-key error is positioned: {stderr}"
    );

    // A parseable but empty ledger: the missing entry is a failure that
    // prints the regeneration command.
    std::fs::write(
        results.join("ledger.json"),
        "{\n  \"schema\": 1,\n  \"records\": []\n}\n",
    )
    .unwrap();
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["verify", scenarios.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("no ledger entry") && stderr.contains("--record"),
        "missing entry prints the regeneration command: {stderr}"
    );
    std::fs::remove_dir_all(&scenarios).ok();
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn record_then_verify_round_trips_and_reruns_hit_the_cache() {
    let scenarios = temp_dir("roundtrip-scenarios");
    let results = temp_dir("roundtrip-results");
    let file = scenarios.join("mini.json");
    std::fs::write(&file, MINI_SCENARIO).unwrap();

    // --record bootstraps the ledger from nothing…
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["run", file.to_str().unwrap(), "--record"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("recorded mini"), "{stderr}");
    assert!(results.join("ledger.json").exists());
    let fresh_csv = out.stdout.clone();

    // …verify immediately passes against it…
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["verify", scenarios.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "record → verify must pass: {stderr}"
    );
    assert!(stderr.contains("1 scenario(s), 0 failure(s)"), "{stderr}");

    // …a plain rerun reuses the cached record, byte-identical CSV…
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["run", file.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("[cached]"),
        "cache hit is reported: {stderr}"
    );
    assert_eq!(out.stdout, fresh_csv, "cached CSV is byte-identical");

    // …and --from-raw re-simulates (no cache marker), same bytes again.
    let out = experiments()
        .env("ARVIS_RESULTS_DIR", &results)
        .args(["run", file.to_str().unwrap(), "--from-raw"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        !stderr.contains("[cached]"),
        "--from-raw ignores the cache: {stderr}"
    );
    assert_eq!(out.stdout, fresh_csv, "replay is bit-deterministic");
    std::fs::remove_dir_all(&scenarios).ok();
    std::fs::remove_dir_all(&results).ok();
}

/// The SHA-256 of every CSV the figure subcommands write at
/// `--points 20000 --slots 800`. `fig1` is not pinned: its table carries
/// wall-clock build times.
const FIGURE_DIGESTS: [(&str, &str); 11] = [
    (
        "ext_ablation_quality_model.csv",
        "53a89b1fd69be60fd723e38417ebdf8954317706a301f69f53b04b6531de6c71",
    ),
    (
        "ext_distributed.csv",
        "b5e3b3ae1925a20cd0c4776176fcb4aebceacf5ff59256fa5ab2693abe1ac9ec",
    ),
    (
        "ext_energy_budget.csv",
        "fe593707c20fe94fdc1cc45a87c0a7caf1896818f52d860692f5915d893b9631",
    ),
    (
        "ext_frame_latency.csv",
        "6c6bc86ba3b4e0ffd9fd5d4a9af4c9bbfac7f1d52afc41d3f71757c058664ce7",
    ),
    (
        "ext_rate_sweep.csv",
        "915ca1d7f6868bb54e0e4dd5701cd78b410ac24021f75c7d6853db81af5aaa02",
    ),
    (
        "ext_shared_uplink.csv",
        "f07e69dc554d332c2b52e2698659bd8995eceea36486cf743ee4e0c9223738c8",
    ),
    (
        "ext_uplink_adaptive.csv",
        "2885b7fd1ec9c07b8374db0b4f774de3b541b94b5a31a1c39553dbdba552179a",
    ),
    (
        "ext_v_sweep.csv",
        "8dbc377d7defaa938fbbdb2ac5d71f41f49e02cc79972d9115ca6723ab36f732",
    ),
    (
        "fig2_summary.csv",
        "67e39473d3b4e9f2d839753450e833a0b77e69ea01c8f1c465c79617a024bc7b",
    ),
    (
        "fig2a_queue_backlog.csv",
        "9ba120da0327001de9ed3c5b001a3d41b46b60e730e99d3df76a3f105bd59273",
    ),
    (
        "fig2b_control_action.csv",
        "b6a3b3848d18c586eecb754731f4f50df6e0481613aaa8ff03b0acb2abc3c7b1",
    ),
];

#[test]
fn figure_subcommands_write_their_pinned_csv_bytes() {
    let results = temp_dir("figures");
    for command in [
        "fig2",
        "vsweep",
        "ratesweep",
        "distributed",
        "ablation",
        "energy",
        "latency",
        "uplink",
    ] {
        let out = experiments()
            .env("ARVIS_RESULTS_DIR", &results)
            .args([command, "--points", "20000", "--slots", "800"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{command}: {stderr}");
    }
    let mut written: Vec<String> = std::fs::read_dir(&results)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    let pinned: Vec<&str> = FIGURE_DIGESTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        written, pinned,
        "the figure commands write exactly these files"
    );
    for (name, digest) in FIGURE_DIGESTS {
        let bytes = std::fs::read(results.join(name)).unwrap();
        assert_eq!(
            arvis_core::hash::sha256_hex(&bytes),
            digest,
            "{name} changed"
        );
    }
    std::fs::remove_dir_all(&results).ok();
}
