//! Fixture conformance for `arvis-lint`.
//!
//! Every rule has a violating sample, a clean sample, and (where pragmas
//! make sense) a pragma-suppressed sample under `tests/fixtures/`. The
//! tests here pin each seeded violation to its exact `file:line` — if a
//! rule drifts (misses a pattern, or starts firing on clean code) these
//! fail before the workspace audit does.

use std::path::PathBuf;
use std::process::Command;

use arvis_lint::{lint_file, lint_workspace, FilePolicy, LintConfig};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn strict() -> FilePolicy {
    FilePolicy {
        allow_time: false,
        allow_unsafe: false,
        is_codec: false,
    }
}

/// Lints one fixture and reduces the findings to `(rule, line)` pairs.
fn findings(rel: &str, policy: &FilePolicy) -> Vec<(String, u32)> {
    let path = fixtures_root().join(rel);
    lint_file(&path, rel, policy)
        .unwrap_or_else(|e| panic!("lint {rel}: {e}"))
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn pairs(rule: &str, lines: &[u32]) -> Vec<(String, u32)> {
    lines.iter().map(|&l| (rule.to_string(), l)).collect()
}

#[test]
fn no_ambient_time_exact_lines() {
    assert_eq!(
        findings("no_ambient_time/violating.rs", &strict()),
        pairs("no-ambient-time", &[3, 6, 7])
    );
    assert_eq!(findings("no_ambient_time/clean.rs", &strict()), []);
}

#[test]
fn no_ambient_time_exact_columns() {
    let path = fixtures_root().join("no_ambient_time/violating.rs");
    let found = lint_file(&path, "no_ambient_time/violating.rs", &strict()).unwrap();
    let at = |line: u32| found.iter().find(|f| f.line == line).expect("finding");
    // `use std::time::Instant;` — `Instant` starts at column 16.
    assert_eq!(at(3).col, 16);
    // `    let t0 = Instant::now();` — column 14.
    assert_eq!(at(6).col, 14);
    assert_eq!(
        at(6).render(),
        format!(
            "no_ambient_time/violating.rs:6:14 no-ambient-time {}",
            at(6).message
        )
    );
}

#[test]
fn no_ambient_time_allowlist_exempts() {
    let policy = FilePolicy {
        allow_time: true,
        ..strict()
    };
    assert_eq!(findings("no_ambient_time/violating.rs", &policy), []);
}

#[test]
fn no_ambient_entropy_exact_lines() {
    assert_eq!(
        findings("no_ambient_entropy/violating.rs", &strict()),
        pairs("no-ambient-entropy", &[3, 6, 7, 8])
    );
    assert_eq!(findings("no_ambient_entropy/clean.rs", &strict()), []);
}

#[test]
fn hash_order_iteration_exact_lines() {
    // Line 15: field receiver; 20: set algebra on a param; 25: accessor
    // call receiver; 33: `for … in map`.
    assert_eq!(
        findings("hash_order_iteration/violating.rs", &strict()),
        pairs("hash-order-iteration", &[15, 20, 25, 33])
    );
    assert_eq!(findings("hash_order_iteration/clean.rs", &strict()), []);
}

#[test]
fn hash_order_iteration_pragmas_suppress() {
    // Both placements: the standalone comment line above, and the trailing
    // same-line comment. Both pragmas are used, so no lint-pragma finding.
    assert_eq!(findings("hash_order_iteration/pragma.rs", &strict()), []);
}

#[test]
fn panic_free_codecs_exact_lines() {
    let codec = FilePolicy {
        is_codec: true,
        ..strict()
    };
    assert_eq!(
        findings("panic_free_codecs/violating/json.rs", &codec),
        pairs("panic-free-codecs", &[4, 6, 8, 10])
    );
    // Unwraps inside `#[cfg(test)]` are exempt.
    assert_eq!(findings("panic_free_codecs/clean/json.rs", &codec), []);
    // The rule only applies to codec files at all.
    assert_eq!(
        findings("panic_free_codecs/violating/json.rs", &strict()),
        []
    );
}

#[test]
fn no_unsafe_exact_lines() {
    let found = findings("no_unsafe/violating.rs", &strict());
    assert_eq!(found, pairs("no-unsafe", &[4]));
    assert_eq!(findings("no_unsafe/clean.rs", &strict()), []);
    let par_policy = FilePolicy {
        allow_unsafe: true,
        ..strict()
    };
    assert_eq!(findings("no_unsafe/violating.rs", &par_policy), []);
}

#[test]
fn float_reduction_order_exact_lines() {
    assert_eq!(
        findings("float_reduction_order/violating.rs", &strict()),
        pairs("float-reduction-order", &[7, 11])
    );
    // No parallel marker in the module ⇒ serial float sums are fine.
    assert_eq!(findings("float_reduction_order/clean.rs", &strict()), []);
    assert_eq!(findings("float_reduction_order/pragma.rs", &strict()), []);
}

#[test]
fn bad_pragmas_are_themselves_findings() {
    // Line 3: unknown rule name; line 6: missing justification; line 9:
    // well-formed but suppresses nothing.
    assert_eq!(
        findings("lint_pragma/bad.rs", &strict()),
        pairs("lint-pragma", &[3, 6, 9])
    );
}

/// The directory walk sees every fixture and every rule fires somewhere:
/// 100% of the seeded corpus is detected.
#[test]
fn strict_walk_covers_every_rule() {
    let report = lint_workspace(&LintConfig::strict_at(fixtures_root())).expect("walk fixtures");
    assert_eq!(report.files_scanned, 24, "fixture corpus size drifted");
    assert_eq!(report.findings.len(), 33, "\n{}", report.render_text());
    for (rule, _) in arvis_lint::RULES {
        assert!(
            !report.by_rule(rule).is_empty(),
            "rule {rule} has no live fixture coverage"
        );
    }
}

/// Workspace-lints the fixture corpus and returns findings in one file.
fn walk_findings(file: &str) -> Vec<arvis_lint::Finding> {
    let report = lint_workspace(&LintConfig::strict_at(fixtures_root())).expect("walk fixtures");
    report
        .findings
        .into_iter()
        .filter(|f| f.file == file)
        .collect()
}

/// The seeded cross-file chain: `relay → launch → Probe::sample →
/// read_clock → Instant`. Every hop is pinned to its exact call-site
/// position and its full rendered chain.
#[test]
fn taint_chain_exact_positions_and_chains() {
    let tail = [
        "taint_chain::clock_leaf::read_clock".to_string(),
        "`Instant` (taint_chain/clock_leaf.rs:4)".to_string(),
    ];

    // The leaf itself is a plain per-file finding, chainless.
    let leaf = walk_findings("taint_chain/clock_leaf.rs");
    assert_eq!(leaf.len(), 1);
    assert_eq!(
        (leaf[0].line, leaf[0].col, leaf[0].rule),
        (4, 25, "no-ambient-time")
    );
    assert!(leaf[0].chain.is_empty(), "direct findings carry no chain");

    // One hop: the impl method's call into the leaf.
    let mid = walk_findings("taint_chain/mid.rs");
    assert_eq!(mid.len(), 1, "{mid:?}");
    assert_eq!(
        (mid[0].line, mid[0].col, mid[0].rule),
        (9, 28, "no-ambient-time")
    );
    let mut want = vec!["taint_chain::mid::Probe::sample".to_string()];
    want.extend(tail.iter().cloned());
    assert_eq!(mid[0].chain, want);

    // Two and three hops, the deeper one through the method call.
    let top = walk_findings("taint_chain/top.rs");
    assert_eq!(top.len(), 2, "{top:?}");
    assert_eq!((top[0].line, top[0].col), (7, 7));
    assert_eq!(
        top[0].chain,
        [
            "taint_chain::top::launch".to_string(),
            "taint_chain::mid::Probe::sample".to_string(),
            tail[0].clone(),
            tail[1].clone(),
        ]
    );
    assert_eq!((top[1].line, top[1].col), (11, 5));
    assert_eq!(top[1].chain.len(), 5, "{:?}", top[1].chain);
    assert_eq!(top[1].chain[0], "taint_chain::top::relay");
    assert!(
        top[1].message.contains(
            "taint_chain::top::relay → taint_chain::top::launch → \
             taint_chain::mid::Probe::sample → taint_chain::clock_leaf::read_clock → \
             `Instant` (taint_chain/clock_leaf.rs:4)"
        ),
        "rendered chain drifted: {}",
        top[1].message
    );
}

/// Raw-identifier paths (`r#type::r#fn`, `super::r#unsafe`) resolve like
/// ordinary ones, so the clock taint flows through them — and `r#unsafe`
/// the *name* never trips the `no-unsafe` keyword rule.
#[test]
fn raw_ident_paths_resolve_and_carry_taint() {
    let found = walk_findings("lexer_edge/raw_path.rs");
    let triples: Vec<_> = found.iter().map(|f| (f.line, f.col, f.rule)).collect();
    assert_eq!(
        triples,
        [
            (6, 16, "no-ambient-time"),
            (11, 16, "no-ambient-time"),
            (16, 13, "no-ambient-time"),
        ],
        "{found:?}"
    );
    assert_eq!(
        found[1].chain,
        [
            "lexer_edge::raw_path::type::fn".to_string(),
            "lexer_edge::raw_path::unsafe".to_string(),
            "`Instant` (lexer_edge/raw_path.rs:6)".to_string(),
        ]
    );
    assert_eq!(found[2].chain.len(), 4);
    assert_eq!(found[2].chain[0], "lexer_edge::raw_path::call_raw");
}

/// Lexer hardening: a shebang line and a UTF-8 BOM shift neither lines
/// nor columns.
#[test]
fn shebang_and_bom_do_not_shift_positions() {
    let sh = walk_findings("lexer_edge/shebang.rs");
    assert_eq!(sh.len(), 1, "{sh:?}");
    assert_eq!(
        (sh[0].line, sh[0].col, sh[0].rule),
        (3, 5, "no-ambient-entropy")
    );

    let bom = walk_findings("lexer_edge/bom.rs");
    assert_eq!(bom.len(), 1, "{bom:?}");
    assert_eq!(
        (bom[0].line, bom[0].col, bom[0].rule),
        (1, 36, "no-ambient-entropy")
    );
}

/// Nested cfg evaluation: `all(test, …)` is a test region (unwrap
/// exempt), `any(test, …)` and `not(any(test, …))` are not.
#[test]
fn nested_cfg_test_regions_are_exact() {
    let found = walk_findings("lexer_edge/cfg_nest/json.rs");
    let triples: Vec<_> = found.iter().map(|f| (f.line, f.col, f.rule)).collect();
    assert_eq!(
        triples,
        [(14, 19, "panic-free-codecs"), (21, 19, "panic-free-codecs")],
        "{found:?}"
    );
}

/// Fn-scoped pragmas: an allow on the line above a `fn` header covers the
/// whole item — the source inside is suppressed AND the taint it would
/// hand to callers is contained; an unused fn-scoped pragma self-flags.
#[test]
fn fn_scoped_pragmas_contain_and_self_flag() {
    let scoped = walk_findings("fn_pragma/scoped.rs");
    assert!(scoped.is_empty(), "taint must be contained: {scoped:?}");

    let unused = walk_findings("fn_pragma/unused.rs");
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(
        (unused[0].line, unused[0].col, unused[0].rule),
        (1, 1, "lint-pragma")
    );
    assert!(unused[0]
        .message
        .contains("suppresses nothing in its scope"));
}

/// The CI contract: the binary exits nonzero when findings exist (so a
/// seeded violation demonstrably fails the pipeline) and zero when the
/// tree is clean.
#[test]
fn binary_exit_codes_match_findings() {
    let bin = env!("CARGO_BIN_EXE_arvis-lint");

    let dirty = Command::new(bin)
        .arg("--root")
        .arg(fixtures_root())
        .output()
        .expect("run arvis-lint");
    assert_eq!(dirty.status.code(), Some(1), "fixtures must fail the lint");
    let stdout = String::from_utf8(dirty.stdout).expect("utf-8 report");
    assert!(
        stdout.contains("no_ambient_time/violating.rs:6:14 no-ambient-time"),
        "missing expected finding line in:\n{stdout}"
    );

    let clean = Command::new(bin)
        .arg("--root")
        .arg(fixtures_root().join("panic_free_codecs/clean"))
        .output()
        .expect("run arvis-lint");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "clean tree must pass: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
}
