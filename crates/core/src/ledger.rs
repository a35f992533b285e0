//! The append-only regression ledger: bit-exact run records keyed by
//! scenario content hash.
//!
//! Every golden scenario has a canonical byte form ([`crate::json`]) and a
//! bit-deterministic replay, so a run's full summary surface can be
//! *committed* and mechanically re-checked: a [`RunRecord`] captures, for
//! one scenario, the content hash of its canonical bytes
//! ([`crate::Scenario::content_hash`]), the schema version it emits, a
//! code-version tag, and every number the replay produces — the
//! per-session [`SessionSummary`] fields, the [`UplinkSummary`] aggregates
//! (including the fault/shed counters) and the per-session downtime slots
//! on contended runs. A [`Ledger`] is the committed collection of records
//! (`results/ledger.json`), serialized through the same canonical JSON
//! layer as scenario files: strict parsing with line/column errors,
//! unknown-key rejection, shortest round-trip floats, and byte-identical
//! `emit → parse → emit`.
//!
//! The ledger is append-only in workflow terms: `experiments run <file>
//! --record` adds or regenerates the one record for that scenario;
//! `experiments verify <dir>` replays every scenario file and diffs the
//! recomputed record against the committed one **field by field** — any
//! single-bit drift in a float fails CI with the exact path
//! (`sessions[3].mean_quality: …`) and the regeneration command. Records
//! double as a result cache: a rerun whose (content hash, code version)
//! pair is already recorded can reuse the stored summaries instead of
//! re-simulating (`--from-raw` forces the re-run).
//!
//! ```
//! use arvis_core::ledger::{Ledger, RunRecord};
//! use arvis_core::scenario::{ControllerSpec, Scenario};
//! use arvis_core::experiment::ExperimentConfig;
//! use arvis_quality::DepthProfile;
//!
//! let profile = DepthProfile::from_parts(
//!     5,
//!     vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
//!     vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
//! );
//! let base = ExperimentConfig::new(profile, 2_000.0, 200);
//! let scenario = Scenario::replicated(&base, ControllerSpec::Proposed { v: 1e7 }, 2);
//!
//! // Record a replay, round-trip the ledger, verify bit-for-bit.
//! let record = RunRecord::replay("demo", &scenario).unwrap();
//! let mut ledger = Ledger::new();
//! ledger.upsert(record.clone());
//! let text = ledger.to_json_string().unwrap();
//! let back = Ledger::from_json_str(&text).unwrap();
//! assert_eq!(back.to_json_string().unwrap(), text, "canonical round-trip");
//!
//! let replay = RunRecord::replay("demo", &scenario).unwrap();
//! let stored = back.find(&replay.scenario_hash, &replay.code_version).unwrap();
//! assert!(stored.diff(&replay).unwrap().is_empty(), "bit-identical replay");
//! ```

use crate::json::{self, Codec, Emit, Emitter, JsonError, JsonKind, JsonValue};
use crate::scenario::Scenario;
use crate::session::SessionBatch;
use crate::telemetry::SessionSummary;
use crate::uplink::{run_contended, UplinkSummary};

/// The ledger-file schema version (the top-level `"schema"` member). Bump
/// on any record-format change.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// The code-version tag stamped into new records: the `arvis-core` crate
/// version. A record is only reused as a cache hit when both the scenario
/// hash *and* this tag match, so a PR that intentionally changes replay
/// numbers regenerates the ledger (and may bump the workspace version) in
/// the same change.
pub const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// One scenario's committed replay: content address, provenance tags, and
/// the full bit-exact summary surface.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Display name (the scenario file's stem, e.g. `e1_fig2`).
    pub scenario: String,
    /// SHA-256 of the scenario's canonical bytes
    /// ([`crate::Scenario::content_hash`]), 64 lowercase hex digits.
    pub scenario_hash: String,
    /// The schema version the scenario emits (1 plain, 2 faulted,
    /// 3 churned).
    pub scenario_schema: u64,
    /// The [`CODE_VERSION`] that produced the record.
    pub code_version: String,
    /// Per-session summaries, batch order.
    pub sessions: Vec<SessionSummary>,
    /// The uplink's aggregate summary — present exactly when the replay
    /// went through the contention plane (an `uplink` or `fault` member).
    pub uplink: Option<UplinkSummary>,
    /// Per-session slots spent down or dead (batch order); present with
    /// [`RunRecord::uplink`].
    pub downtime: Option<Vec<u64>>,
}

impl RunRecord {
    /// Replays `scenario` and captures its summary surface — through the
    /// shared-uplink contention plane when the scenario declares an
    /// `uplink`, a `fault` plan, or `churn` (the `experiments run`
    /// auto-selection), as uncoupled summary-only sessions otherwise.
    ///
    /// # Errors
    ///
    /// Errors when the scenario has no file form (a non-finite float) and
    /// therefore no content address.
    pub fn replay(name: impl Into<String>, scenario: &Scenario) -> Result<RunRecord, JsonError> {
        let scenario_hash = scenario.content_hash()?;
        let (sessions, uplink, downtime) =
            if scenario.uplink.is_some() || scenario.fault.is_some() || scenario.churn.is_some() {
                let run = run_contended(scenario);
                (run.summaries, Some(run.uplink), Some(run.downtime))
            } else {
                let mut batch = SessionBatch::summary_only(scenario);
                batch.run();
                (batch.into_summaries(), None, None)
            };
        Ok(RunRecord {
            scenario: name.into(),
            scenario_hash,
            scenario_schema: scenario.schema_version(),
            code_version: CODE_VERSION.to_string(),
            sessions,
            uplink,
            downtime,
        })
    }

    /// Decodes one record, rejecting unknown keys at every level.
    ///
    /// # Errors
    ///
    /// Errors with the offending position on missing/unknown keys and
    /// wrong types.
    pub fn from_json(v: &JsonValue) -> Result<RunRecord, JsonError> {
        RunRecord::decode(v)
    }
    /// Field-level bitwise diff of this (committed) record against a
    /// `replay` recomputation: one line per mismatching field, e.g.
    /// `sessions[3].mean_quality: ledger 0.86… != replay 0.85…`. The two
    /// records' canonical texts are parsed and compared node by node, and
    /// floats through their shortest round-trip rendering, which is
    /// injective on bit patterns — an empty diff means the two records are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Errors only if either record fails to encode (a non-finite field
    /// outside the lawful `mean_budget`, which encodes as `"inf"`).
    pub fn diff(&self, replay: &RunRecord) -> Result<Vec<String>, JsonError> {
        let (ledger, recomputed) = (json::to_string(self)?, json::to_string(replay)?);
        let mut out = Vec::new();
        diff_value(
            "",
            &json::parse(&ledger)?,
            &json::parse(&recomputed)?,
            &mut out,
        );
        Ok(out)
    }
}

json::codec!(RunRecord {
    scenario,
    scenario_hash,
    scenario_schema,
    code_version,
    sessions,
    uplink,
    downtime,
});

/// The committed record collection behind `results/ledger.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Records sorted by scenario name (the canonical file order).
    pub records: Vec<RunRecord>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger {
            records: Vec::new(),
        }
    }

    /// The record cached for this (content hash, code version) pair, if
    /// any — the cache-lookup key: a hit is bit-exact by construction.
    pub fn find(&self, scenario_hash: &str, code_version: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.scenario_hash == scenario_hash && r.code_version == code_version)
    }

    /// Adds `record`, replacing any existing record for the same scenario
    /// name or the same content hash, and keeps the collection sorted by
    /// (scenario, hash, code version) so emission stays canonical
    /// regardless of recording order.
    pub fn upsert(&mut self, record: RunRecord) {
        self.records
            .retain(|r| r.scenario != record.scenario && r.scenario_hash != record.scenario_hash);
        self.records.push(record);
        self.records.sort_by(|a, b| {
            (&a.scenario, &a.scenario_hash, &a.code_version).cmp(&(
                &b.scenario,
                &b.scenario_hash,
                &b.code_version,
            ))
        });
    }

    /// Decodes a ledger tree, checking the schema version and rejecting
    /// unknown keys.
    ///
    /// # Errors
    ///
    /// Errors with the offending position on an unsupported `"schema"`,
    /// unknown or missing keys, and wrong types.
    pub fn from_json(v: &JsonValue) -> Result<Ledger, JsonError> {
        let mut obj = v.as_obj()?;
        let schema_node = obj.req("schema")?;
        let schema = schema_node.as_u64()?;
        if schema != LEDGER_SCHEMA_VERSION {
            return Err(JsonError::at(
                schema_node.pos,
                format!(
                    "unsupported ledger schema version {schema} \
                     (this build reads version {LEDGER_SCHEMA_VERSION})"
                ),
            ));
        }
        let records = Codec::member(&mut obj, "records")?;
        obj.finish()?;
        Ok(Ledger { records })
    }
    /// Renders the canonical file form, `{"schema": …, "records": […]}`
    /// with a trailing newline. `emit → parse → emit` is byte-identical
    /// (pinned by `tests/regression_ledger.rs`).
    ///
    /// # Errors
    ///
    /// Propagates record encode errors.
    pub fn to_json_string(&self) -> Result<String, JsonError> {
        let mut out = json::to_string(self)?;
        out.push('\n');
        Ok(out)
    }

    /// Parses a ledger file: strict JSON ([`crate::json::parse`]) followed
    /// by [`Ledger::from_json`].
    ///
    /// # Errors
    ///
    /// Errors with line/column on any syntax or schema violation; never
    /// panics, whatever the input bytes.
    pub fn from_json_str(text: &str) -> Result<Ledger, JsonError> {
        Ledger::from_json(&crate::json::parse(text)?)
    }
}

/// The ledger's file form (see [`Ledger::to_json_string`]).
impl Emit for Ledger {
    fn emit(&self, out: &mut Emitter, _name: &str) -> Result<(), JsonError> {
        let Ledger { records } = self;
        out.object(|out| {
            out.member("schema", &LEDGER_SCHEMA_VERSION)?;
            out.member("records", records)
        })
    }
}

json::codec!(SessionSummary {
    slots,
    mean_quality,
    mean_backlog,
    backlog_p95,
    backlog_p99,
    frames_completed,
    frame_latency_mean,
    frame_latency_p95,
    frame_latency_p99,
    littles_delay,
    dropped_total,
    depth_switch_rate,
    stable,
});

// The mean budget may lawfully be infinite (an unconstrained uplink).
json::codec!(UplinkSummary {
    slots,
    mean_budget: Inf,
    contended_slots,
    mean_demand,
    mean_granted,
    mean_backlog,
    peak_backlog,
    shed_slots,
    deferred_session_slots,
    lost_total,
    outage_slots,
    down_session_slots,
});
/// Renders one scalar node for diff messages (objects/arrays never reach
/// this: [`diff_value`] recurses into them). A parsed number is finite, so
/// it always has a canonical text; an error would render as its message.
fn scalar_repr(v: &JsonValue) -> String {
    json::to_string(v).unwrap_or_else(|e| e.msg)
}

/// Structural bitwise diff of two parsed records. Scalars compare through
/// their canonical rendering (injective on f64 bit patterns), objects
/// member-by-member (either side's extra members are reported), arrays
/// element-by-element plus a length line.
fn diff_value(path: &str, ledger: &JsonValue, replay: &JsonValue, out: &mut Vec<String>) {
    let join = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match (&ledger.kind, &replay.kind) {
        (JsonKind::Obj(a), JsonKind::Obj(b)) => {
            for m in a {
                match b.iter().find(|n| n.key == m.key) {
                    Some(n) => diff_value(&join(&m.key), &m.value, &n.value, out),
                    None => out.push(format!(
                        "{}: ledger {} != replay <absent>",
                        join(&m.key),
                        scalar_repr(&m.value)
                    )),
                }
            }
            for n in b {
                if !a.iter().any(|m| m.key == n.key) {
                    out.push(format!(
                        "{}: ledger <absent> != replay {}",
                        join(&n.key),
                        scalar_repr(&n.value)
                    ));
                }
            }
        }
        (JsonKind::Arr(a), JsonKind::Arr(b)) => {
            if a.len() != b.len() {
                out.push(format!(
                    "{path}: ledger has {} elements != replay {}",
                    a.len(),
                    b.len()
                ));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                diff_value(&format!("{path}[{i}]"), x, y, out);
            }
        }
        _ => {
            let (x, y) = (scalar_repr(ledger), scalar_repr(replay));
            if x != y {
                out.push(format!("{path}: ledger {x} != replay {y}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::scenario::ControllerSpec;
    use arvis_quality::DepthProfile;

    fn tiny_scenario(slots: u64) -> Scenario {
        let profile = DepthProfile::from_parts(
            5,
            vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
            vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        );
        let base = ExperimentConfig::new(profile, 2_000.0, slots);
        Scenario::replicated(&base, ControllerSpec::Proposed { v: 1e7 }, 2)
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let scenario = tiny_scenario(200);
        let record = RunRecord::replay("tiny", &scenario).unwrap();
        let text = json::to_string(&record).unwrap();
        let back = RunRecord::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, record);
        assert!(record.diff(&back).unwrap().is_empty());
    }

    #[test]
    fn contended_record_carries_uplink_and_downtime() {
        let mut scenario = tiny_scenario(200);
        scenario = scenario.with_uplink(crate::uplink::UplinkSpec::new(
            3_000.0,
            crate::uplink::UplinkPolicy::ProportionalShare,
        ));
        let record = RunRecord::replay("tiny_uplink", &scenario).unwrap();
        assert!(record.uplink.is_some());
        assert_eq!(record.downtime.as_deref().map(<[u64]>::len), Some(2));
        let text = json::to_string(&record).unwrap();
        assert_eq!(
            RunRecord::from_json(&json::parse(&text).unwrap()).unwrap(),
            record
        );
    }

    #[test]
    fn diff_names_the_field_and_both_values() {
        let scenario = tiny_scenario(200);
        let record = RunRecord::replay("tiny", &scenario).unwrap();
        let mut tampered = record.clone();
        tampered.sessions[1].mean_quality += 1e-9;
        tampered.sessions[0].slots += 1;
        let diff = record.diff(&tampered).unwrap();
        assert_eq!(diff.len(), 2);
        assert!(diff[0].starts_with("sessions[0].slots: ledger 200 != replay 201"));
        assert!(diff[1].starts_with("sessions[1].mean_quality: ledger "));
    }

    #[test]
    fn upsert_replaces_by_name_and_hash_and_sorts() {
        let scenario = tiny_scenario(200);
        let record = RunRecord::replay("bbb", &scenario).unwrap();
        let mut ledger = Ledger::new();
        ledger.upsert(record.clone());
        ledger.upsert(record.clone());
        assert_eq!(ledger.records.len(), 1, "same record upserts in place");

        let other = RunRecord::replay("aaa", &tiny_scenario(100)).unwrap();
        ledger.upsert(other.clone());
        assert_eq!(ledger.records.len(), 2);
        assert_eq!(ledger.records[0].scenario, "aaa", "sorted by name");

        // A renamed record with the old hash evicts the hash-match too.
        let renamed = RunRecord {
            scenario: "ccc".to_string(),
            ..record
        };
        ledger.upsert(renamed);
        assert_eq!(ledger.records.len(), 2);
        assert!(ledger.records.iter().all(|r| r.scenario != "bbb"));
    }

    #[test]
    fn ledger_rejects_unknown_keys_and_bad_schema() {
        let err = Ledger::from_json_str("{\n  \"schema\": 9,\n  \"records\": []\n}").unwrap_err();
        assert!(err.msg.contains("unsupported ledger schema"), "{}", err.msg);
        assert_eq!(err.pos.unwrap().line, 2);

        let err =
            Ledger::from_json_str("{\n  \"schema\": 1,\n  \"records\": [],\n  \"extra\": 0\n}")
                .unwrap_err();
        assert!(err.msg.contains("extra"), "{}", err.msg);
        assert_eq!(err.pos.unwrap().line, 4);
    }

    #[test]
    fn cache_lookup_requires_hash_and_code_version() {
        let scenario = tiny_scenario(200);
        let record = RunRecord::replay("tiny", &scenario).unwrap();
        let hash = record.scenario_hash.clone();
        let mut ledger = Ledger::new();
        ledger.upsert(record);
        assert!(ledger.find(&hash, CODE_VERSION).is_some());
        assert!(ledger.find(&hash, "9.9.9").is_none(), "stale code version");
        assert!(ledger.find("0000", CODE_VERSION).is_none());
    }
}
