//! The regression-ledger conformance suite: the committed
//! `results/ledger.json` is bit-exact, canonical, and re-derivable.
//!
//! 1. **Golden replay** — every checked-in `scenarios/*.json` replays to a
//!    [`RunRecord`] that matches the committed ledger entry **bit for
//!    bit** (field-level diff empty), keyed by the scenario's content
//!    hash and the recording code version. This is the library-level twin
//!    of CI's `experiments verify scenarios/` gate: any behavior drift on
//!    a golden run fails here with the exact field path.
//! 2. **Hash stability** — a golden's content hash is the SHA-256 of its
//!    canonical file bytes, invariant under `parse → emit` re-emission,
//!    and sensitive to any one-field edit.
//! 3. **Canonical form** — the committed ledger survives
//!    `parse → emit` byte-identically, so regenerating it is always a
//!    clean diff.
//! 4. **SHA-256** — incremental and one-shot hashing agree on random
//!    inputs under random chunkings (the NIST FIPS 180-4 vectors are
//!    pinned in `arvis_core::hash`'s unit tests).
//!
//! This suite also runs on one worker (CI's `taskset -c 0` pass): replay
//! is bit-identical at every worker count, so one committed ledger serves
//! every machine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arvis::core::hash::{sha256_hex, Sha256};
use arvis::core::ledger::{Ledger, RunRecord, CODE_VERSION, LEDGER_SCHEMA_VERSION};
use arvis::core::scenario::Scenario;
use arvis_bench::presets::SCENARIO_PRESETS;

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn golden_text(preset: &str) -> String {
    std::fs::read_to_string(repo_path(&format!("scenarios/{preset}.json")))
        .unwrap_or_else(|e| panic!("read golden {preset}: {e}"))
}

fn committed_ledger_text() -> String {
    std::fs::read_to_string(repo_path("results/ledger.json")).expect("read committed ledger")
}

#[test]
fn committed_ledger_round_trips_byte_identically() {
    let text = committed_ledger_text();
    let ledger = Ledger::from_json_str(&text).expect("parse committed ledger");
    assert_eq!(
        ledger.to_json_string().expect("re-emit ledger"),
        text,
        "emit → parse → emit must be byte-identical"
    );
}

#[test]
fn committed_ledger_covers_every_golden_exactly_once() {
    let ledger = Ledger::from_json_str(&committed_ledger_text()).expect("parse ledger");
    assert_eq!(
        ledger.records.len(),
        SCENARIO_PRESETS.len(),
        "one record per golden scenario"
    );
    for preset in SCENARIO_PRESETS {
        let record = ledger
            .records
            .iter()
            .find(|r| r.scenario == *preset)
            .unwrap_or_else(|| panic!("{preset}: no ledger record"));
        assert_eq!(record.code_version, CODE_VERSION, "{preset}");
        assert_eq!(record.scenario_hash.len(), 64, "{preset}: hex SHA-256");
    }
}

#[test]
fn goldens_replay_bit_identically_to_the_committed_ledger() {
    let ledger = Ledger::from_json_str(&committed_ledger_text()).expect("parse ledger");
    for preset in SCENARIO_PRESETS {
        let scenario = Scenario::from_json_str(&golden_text(preset))
            .unwrap_or_else(|e| panic!("{preset}: {e}"));
        let replay =
            RunRecord::replay(*preset, &scenario).unwrap_or_else(|e| panic!("{preset}: {e}"));
        let stored = ledger
            .find(&replay.scenario_hash, &replay.code_version)
            .unwrap_or_else(|| {
                panic!(
                    "{preset}: no ledger entry for hash {} at code version {} — \
                     regenerate with `experiments run scenarios/{preset}.json --record --from-raw`",
                    replay.scenario_hash, replay.code_version
                )
            });
        let diff = stored
            .diff(&replay)
            .unwrap_or_else(|e| panic!("{preset}: {e}"));
        assert!(
            diff.is_empty(),
            "{preset}: replay diverges from the committed ledger:\n{}",
            diff.join("\n")
        );
        assert_eq!(stored.scenario, *preset);
        assert_eq!(
            stored.scenario_schema,
            scenario.schema_version(),
            "{preset}"
        );
    }
}

#[test]
fn content_hash_is_the_digest_of_the_canonical_bytes_and_reemission_stable() {
    for preset in SCENARIO_PRESETS {
        let text = golden_text(preset);
        let scenario = Scenario::from_json_str(&text).unwrap_or_else(|e| panic!("{preset}: {e}"));
        let hash = scenario.content_hash().expect("hash");
        // The committed golden is already canonical, so the file bytes are
        // the hash preimage…
        assert_eq!(hash, sha256_hex(text.as_bytes()), "{preset}");
        // …and a parse → emit → parse round trip cannot move the hash.
        let reemitted =
            Scenario::from_json_str(&scenario.to_json_string().expect("emit")).expect("reparse");
        assert_eq!(reemitted.content_hash().expect("hash"), hash, "{preset}");
    }
}

#[test]
fn one_field_edit_changes_the_content_hash() {
    let text = golden_text("e1_fig2");
    let mut scenario = Scenario::from_json_str(&text).expect("parse e1");
    let original = scenario.content_hash().expect("hash");

    scenario.slots += 1;
    let edited = scenario.content_hash().expect("hash");
    assert_ne!(original, edited, "a one-field edit must move the hash");

    scenario.slots -= 1;
    assert_eq!(
        scenario.content_hash().expect("hash"),
        original,
        "undoing the edit restores the hash"
    );

    // A single-bit float edit moves it too (the canonical float repr is
    // injective on bit patterns).
    let mut scenario = Scenario::from_json_str(&text).expect("parse e1");
    let v = scenario.sessions[0].warmup as f64;
    scenario.sessions[0].service =
        arvis::core::experiment::ServiceSpec::Constant(f64::from_bits(v.to_bits() + 1));
    assert_ne!(scenario.content_hash().expect("hash"), original);
}

#[test]
fn ledger_schema_version_is_pinned() {
    // The committed file must declare the version this build writes —
    // bumping LEDGER_SCHEMA_VERSION without regenerating the ledger is a
    // loud failure, not a silent reinterpretation.
    assert_eq!(LEDGER_SCHEMA_VERSION, 1);
    let text = committed_ledger_text();
    assert!(
        text.starts_with("{\n  \"schema\": 1,"),
        "committed ledger declares schema 1"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental hashing agrees with one-shot hashing whatever the
    /// chunking — the update/finalize buffering never depends on how the
    /// byte stream is sliced.
    #[test]
    fn sha256_incremental_agrees_with_one_shot(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..600);
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let one_shot = sha256_hex(&data);

        let mut hasher = Sha256::new();
        let mut rest: &[u8] = &data;
        while !rest.is_empty() {
            let take = rng.gen_range(1..=rest.len());
            hasher.update(&rest[..take]);
            rest = &rest[take..];
        }
        prop_assert_eq!(hasher.finalize_hex(), one_shot);
    }
}
