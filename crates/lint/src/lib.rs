//! `arvis-lint` — the workspace's determinism auditor.
//!
//! Every headline result in this repository rests on a bit-determinism
//! contract: order/chunk/serial-parallel invariance of the batch runtime,
//! byte-identical scenario emit/replay, cold-restart ≡ fresh-session
//! bitwise. The runtime test suites enforce that contract on the *outputs*;
//! this crate enforces it on the *source*, by statically rejecting the
//! hazards those suites cannot see: ambient clocks and entropy, hash-order
//! iteration, panicking codecs, unsafe code, and unordered float
//! reductions in parallel modules.
//!
//! # Design
//!
//! The linter is dependency-free by the same vendored-shim constraint as
//! the rest of the workspace: no `syn`, no `rustc` internals. Instead it
//! lexes each file into a flat token stream ([`lexer`]) — string-, char-,
//! comment-, and attribute-aware, so rules never fire inside literals or
//! comments — and runs token-pattern rules over it ([`rules`]). Findings
//! are rendered as `file:line:col rule message` lines plus a canonical
//! JSON report through `arvis_core::json` ([`report`]).
//!
//! # Rules
//!
//! | rule | contract |
//! |------|----------|
//! | `no-ambient-time` | `Instant`/`SystemTime` only in bench/profiling code; library time is the slot counter |
//! | `no-ambient-entropy` | `thread_rng`/`from_entropy`/`RandomState` never; every RNG is seeded |
//! | `hash-order-iteration` | iterating `HashMap`/`HashSet` needs a deterministic container or a pragma citing the downstream sort |
//! | `panic-free-codecs` | `unwrap`/`expect`/`panic!`/`unreachable!` forbidden in codec files (`json.rs`, `scenario.rs`, `fault.rs`, `churn.rs`, `ledger.rs`, `hash.rs`); codecs return positioned errors |
//! | `no-unsafe` | `unsafe` only in the explicit allowlist (`crates/par`); everything else is `forbid(unsafe_code)` |
//! | `float-reduction-order` | bare `.sum::<f32>()` / `.sum::<f64>()` in parallel-bearing modules must go through the `arvis_par` chunked reducers or carry a pragma |
//! | `lint-pragma` | pragmas must name a known rule, justify themselves, and actually suppress something |
//!
//! # Pragmas
//!
//! A finding is suppressed by an inline pragma on the same line or on a
//! standalone comment line directly above:
//!
//! ```text
//! // arvis-lint: allow(hash-order-iteration, "codes are sorted two lines down")
//! let keys: Vec<_> = map.keys().collect();
//! ```
//!
//! The justification string is mandatory and must be non-empty; a pragma
//! that suppresses nothing is itself a finding, so stale allowances cannot
//! linger.
//!
//! # Known limitations
//!
//! This is a token-level tool: **no macro expansion** (a violation
//! generated by a macro body is invisible), **no type inference** (the
//! hash-order rule tracks textual `name: HashMap<…>` annotations,
//! `let name = HashMap::new()` initializers, and `fn f() -> …HashMap…`
//! accessor signatures — a map smuggled through a type alias or an
//! inferred `collect()` escapes it), and **no name resolution** (a local
//! struct named `Instant` would be flagged; rename it or pragma it).
//! These are the standard trade-offs of a grep-with-a-lexer design; the
//! runtime invariance suites remain the backstop.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod taint;

use std::path::{Path, PathBuf};

pub use report::Report;
pub use rules::{FilePolicy, Finding, RULES};

/// Where and how to lint.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Root directory of the tree to scan.
    pub root: PathBuf,
    /// Root-relative path prefixes to skip entirely (vendored code, build
    /// output, the lint fixture corpus).
    pub exclude: Vec<String>,
    /// Root-relative prefixes where ambient clocks are allowed (wall-clock
    /// measurement is the *job* of bench/profiling code).
    pub allow_time: Vec<String>,
    /// Root-relative prefixes where `unsafe` is allowed.
    pub allow_unsafe: Vec<String>,
    /// File names subject to the panic-free codec rule.
    pub codec_files: Vec<String>,
}

/// The strict-JSON codec files, which must stay panic-free.
fn codec_files() -> Vec<String> {
    [
        "json.rs",
        "scenario.rs",
        "fault.rs",
        "churn.rs",
        "ledger.rs",
        "hash.rs",
    ]
    .map(String::from)
    .to_vec()
}

impl LintConfig {
    /// The workspace policy: scan the repository this crate was built in,
    /// excluding vendored shims and the lint fixture corpus; ambient time
    /// allowed only under `crates/bench`; `unsafe` allowed only under
    /// `crates/par`; the strict-JSON codec files are panic-free.
    pub fn workspace() -> LintConfig {
        LintConfig {
            root: workspace_root(),
            exclude: vec![
                "crates/vendor".into(),
                "crates/lint/tests/fixtures".into(),
                "target".into(),
                ".git".into(),
            ],
            allow_time: vec!["crates/bench".into()],
            allow_unsafe: vec!["crates/par".into()],
            codec_files: codec_files(),
        }
    }

    /// A permissive config rooted at `root` with **no** exclusions or
    /// allowlists — every rule applies to every file, and every `.rs` file
    /// whose name matches a codec file name gets the codec rule. Used by
    /// the fixture self-tests.
    pub fn strict_at(root: impl Into<PathBuf>) -> LintConfig {
        LintConfig {
            root: root.into(),
            exclude: Vec::new(),
            allow_time: Vec::new(),
            allow_unsafe: Vec::new(),
            codec_files: codec_files(),
        }
    }

    fn policy_for(&self, rel: &str) -> FilePolicy {
        let has_prefix = |list: &[String]| list.iter().any(|p| rel.starts_with(p.as_str()));
        let file_name = rel.rsplit('/').next().unwrap_or(rel);
        FilePolicy {
            allow_time: has_prefix(&self.allow_time),
            allow_unsafe: has_prefix(&self.allow_unsafe),
            is_codec: self.codec_files.iter().any(|c| c == file_name),
        }
    }
}

/// The workspace root this crate was compiled in (two levels above the
/// crate manifest: `<root>/crates/lint`).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Lints every `.rs` file under `config.root` (excluding
/// `config.exclude`), in sorted path order: the per-file rules, then the
/// workspace call-graph taint pass, with pragma resolution shared across
/// both (so a pragma that only contains interprocedural taint still counts
/// as used).
///
/// # Errors
///
/// Returns an error string when the root or a file cannot be read.
pub fn lint_workspace(config: &LintConfig) -> Result<Report, String> {
    let mut rels = Vec::new();
    collect_rs_files(&config.root, &config.root, config, &mut rels)?;
    rels.sort();
    // Stage 1: parse every file into its item graph; run per-file rules.
    let mut files = Vec::with_capacity(rels.len());
    let mut policies = Vec::with_capacity(rels.len());
    let mut pragmas = Vec::with_capacity(rels.len());
    let mut findings = Vec::new();
    for rel in &rels {
        let path = config.root.join(rel);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        let items = items::FileItems::parse(rel, &src);
        let policy = config.policy_for(rel);
        let (prag, mut file_findings) = rules::parse_pragmas(rel, &items.comments);
        rules::run_rules(&items, &policy, &mut file_findings);
        rules::suppress(&prag, &items, &mut file_findings);
        findings.extend(file_findings);
        files.push(items);
        policies.push(policy);
        pragmas.push(prag);
    }
    // Stage 2: call graph + interprocedural taint (containment pragmas are
    // consulted — and marked used — inside the pass).
    let graph = callgraph::CallGraph::build(&files);
    findings.extend(taint::run(&files, &graph, &policies, &pragmas));
    // A pragma that suppressed nothing across both stages self-flags.
    for (fi, file) in files.iter().enumerate() {
        rules::flag_unused_pragmas(&file.rel, &pragmas[fi], &mut findings);
    }
    let mut report = Report {
        findings,
        files_scanned: files.len(),
    };
    report.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(report)
}

/// Lints one file with the given policy (fixture self-tests drive this
/// directly).
///
/// # Errors
///
/// Returns an error string when the file cannot be read.
pub fn lint_file(path: &Path, rel: &str, policy: &FilePolicy) -> Result<Vec<Finding>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
    Ok(rules::lint_source(rel, &src, policy))
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &LintConfig,
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("failed to read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("failed to read dir entry: {e}"))?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|e| format!("path escapes root: {e}"))?
            .to_string_lossy()
            .replace('\\', "/");
        if config.exclude.iter().any(|p| rel.starts_with(p.as_str())) {
            continue;
        }
        let ty = entry
            .file_type()
            .map_err(|e| format!("failed to stat {}: {e}", path.display()))?;
        if ty.is_dir() {
            collect_rs_files(root, &path, config, out)?;
        } else if ty.is_file() && rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_config_scopes_policies() {
        let cfg = LintConfig::workspace();
        assert!(cfg.policy_for("crates/bench/src/lib.rs").allow_time);
        assert!(!cfg.policy_for("crates/octree/src/tree.rs").allow_time);
        assert!(cfg.policy_for("crates/par/src/lib.rs").allow_unsafe);
        assert!(!cfg.policy_for("crates/core/src/session.rs").allow_unsafe);
        assert!(cfg.policy_for("crates/core/src/json.rs").is_codec);
        assert!(cfg.policy_for("crates/core/src/fault.rs").is_codec);
        assert!(cfg.policy_for("crates/core/src/churn.rs").is_codec);
        assert!(cfg.policy_for("crates/core/src/ledger.rs").is_codec);
        assert!(cfg.policy_for("crates/core/src/hash.rs").is_codec);
        assert!(!cfg.policy_for("crates/core/src/session.rs").is_codec);
    }

    #[test]
    fn workspace_root_is_a_cargo_workspace() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }
}
