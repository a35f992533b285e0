//! The determinism-contract rules and the per-file engine that runs them.
//!
//! Every rule is a pure function over the token stream of one file (plus a
//! little per-file context the engine precomputes: `#[cfg(test)]` regions,
//! hash-container bindings, parallel-module markers). Findings carry the
//! 1-based line/column of the offending token.

use crate::items::FileItems;
use crate::lexer::{Comment, Tok, TokKind};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path of the file, relative to the lint root (with `/` separators).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Rule name (`no-ambient-time`, …).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// For interprocedural findings: the taint chain from the flagged
    /// call site down to the ambient source (function display paths, then
    /// the source description). Empty for per-file findings.
    pub chain: Vec<String>,
}

impl Finding {
    /// The canonical single-line rendering: `file:line:col rule message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Rule names, as used in findings, pragmas, and the config allowlists.
pub mod names {
    /// Ambient clocks (`Instant`, `SystemTime`).
    pub const NO_AMBIENT_TIME: &str = "no-ambient-time";
    /// Ambient randomness (`thread_rng`, `from_entropy`, `RandomState`).
    pub const NO_AMBIENT_ENTROPY: &str = "no-ambient-entropy";
    /// Iteration over hash-ordered containers.
    pub const HASH_ORDER_ITERATION: &str = "hash-order-iteration";
    /// Panics in codec files that promise positioned errors.
    pub const PANIC_FREE_CODECS: &str = "panic-free-codecs";
    /// `unsafe` outside the allowlist.
    pub const NO_UNSAFE: &str = "no-unsafe";
    /// Bare float reductions in parallel-bearing modules.
    pub const FLOAT_REDUCTION_ORDER: &str = "float-reduction-order";
    /// Malformed or useless `arvis-lint` pragmas.
    pub const LINT_PRAGMA: &str = "lint-pragma";
}

/// Name + one-line description of every rule, for `--list-rules` and docs.
pub const RULES: &[(&str, &str)] = &[
    (
        names::NO_AMBIENT_TIME,
        "std::time::Instant/SystemTime forbidden in deterministic library code",
    ),
    (
        names::NO_AMBIENT_ENTROPY,
        "thread_rng/from_entropy/RandomState forbidden; all randomness is seeded",
    ),
    (
        names::HASH_ORDER_ITERATION,
        "iterating a HashMap/HashSet needs a pragma citing the downstream sort, or a deterministic container",
    ),
    (
        names::PANIC_FREE_CODECS,
        "unwrap/expect/panic!/unreachable! forbidden in codec files; return positioned errors",
    ),
    (
        names::NO_UNSAFE,
        "unsafe code forbidden outside the explicit allowlist",
    ),
    (
        names::FLOAT_REDUCTION_ORDER,
        "bare .sum::<f32|f64>() in a parallel-bearing module needs the deterministic chunked reducers or a pragma",
    ),
    (
        names::LINT_PRAGMA,
        "arvis-lint pragmas must name a known rule, carry a justification, and suppress something",
    ),
];

/// True when `name` is a known rule.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|(n, _)| *n == name)
}

/// The long-form explanation behind `--explain <rule>`: what the rule
/// protects, how the interprocedural pass extends it, and how to contain
/// a deliberate exception.
pub fn explain(rule: &str) -> Option<&'static str> {
    let text = match rule {
        "no-ambient-time" => {
            "Wall-clock reads (`std::time::Instant`, `SystemTime`) make output depend on the \
             machine and the moment, which breaks the bit-determinism contract the regression \
             ledger relies on. Library time is the slot counter. This rule is interprocedural: \
             a function that merely *calls* one that reads the clock is flagged too, with the \
             full taint chain (`a → b → Instant (file:line)`). Measurement code under \
             `crates/bench` is policy-exempt from reporting, but its functions still carry \
             taint, so deterministic code calling into bench timing is caught at that boundary. \
             Contain a deliberate use with `// arvis-lint: allow(no-ambient-time, \"…\")` on \
             the offending line or on the line above the `fn` to cover the whole item."
        }
        "no-ambient-entropy" => {
            "Ambient randomness (`thread_rng`, `from_entropy`, `RandomState`) seeds state from \
             the OS, so two runs of the same scenario diverge. Every RNG in this workspace is \
             explicitly seeded (splitmix-derived per-session streams), and hash containers use \
             fixed-seed hashers. Interprocedural: callers of entropy-tainted functions are \
             flagged with the full chain. There is no policy exemption; a justified exception \
             needs a pragma at the containment boundary."
        }
        "hash-order-iteration" => {
            "Iterating a `HashMap`/`HashSet` observes memory-layout order, which is not part of \
             the deterministic contract even with fixed-seed hashers across versions. Sort the \
             result, use a Vec/BTreeMap, or pragma-cite the downstream sort. This rule is \
             per-file (the binding heuristics do not cross function boundaries)."
        }
        "panic-free-codecs" => {
            "Codec files promise positioned errors (`line/col` in `JsonError`), never panics: a \
             panicking decoder turns a corrupt ledger line into a process abort instead of a \
             diagnosable error. `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` are forbidden \
             outside `#[cfg(test)]` regions of codec files."
        }
        "no-unsafe" => {
            "The workspace is `forbid(unsafe_code)` outside the explicit allowlist \
             (`crates/par` owns the scoped-thread internals). `unsafe` anywhere else voids the \
             determinism argument the safe APIs encode."
        }
        "float-reduction-order" => {
            "Float addition is not associative: `.sum::<f32|f64>()` over a parallel-chunked \
             iterator reduces in whatever order the chunks land, so serial and parallel runs \
             diverge in the last ulp — which the bit-identity suites treat as failure. Route \
             reductions through the `arvis_par` chunked reducers (fixed tree order) or \
             pragma-cite the fixed order. Interprocedural: callers of a function containing an \
             unsuppressed bare float reduction are flagged with the chain."
        }
        "lint-pragma" => {
            "`// arvis-lint: allow(<rule>, \"<justification>\")` must name a known rule, carry \
             a non-empty quoted justification, and actually suppress a finding. A pragma on its \
             own line covers the next code line; directly above an `fn` item it covers the \
             whole item (function-scoped containment). Unused pragmas are themselves findings, \
             so stale allowances cannot linger."
        }
        _ => return None,
    };
    Some(text)
}

/// Per-file rule applicability, derived from the workspace config by the
/// walker (rules themselves stay path-agnostic).
#[derive(Debug, Clone, Default)]
pub struct FilePolicy {
    /// Ambient clocks allowed (bench/profiling code).
    pub allow_time: bool,
    /// `unsafe` allowed (explicit allowlist).
    pub allow_unsafe: bool,
    /// File is a codec (panic-free) file.
    pub is_codec: bool,
}

/// A parsed `// arvis-lint: allow(rule, "justification")` pragma.
#[derive(Debug)]
pub(crate) struct Pragma {
    pub(crate) rule: String,
    pub(crate) line: u32,
    pub(crate) own_line: bool,
    pub(crate) used: std::cell::Cell<bool>,
}

/// Whether some pragma suppresses a finding of `rule` at `line`, marking
/// the pragma used. Three scopes, in order:
///
/// * **trailing** — the pragma shares the finding's line;
/// * **line** — a standalone pragma covers the next line carrying a token;
/// * **function** — a standalone pragma directly above an `fn` item's
///   first line (attributes included) covers the item's whole span, so
///   taint can be contained at the function boundary.
pub(crate) fn pragma_covers(pragmas: &[Pragma], items: &FileItems, rule: &str, line: u32) -> bool {
    let next_tok_line = |after: u32| -> Option<u32> {
        items
            .toks
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > after)
            .min()
    };
    for p in pragmas {
        if p.rule != rule {
            continue;
        }
        if p.line == line {
            p.used.set(true);
            return true;
        }
        if !p.own_line {
            continue;
        }
        let Some(next) = next_tok_line(p.line) else {
            continue;
        };
        if next == line {
            p.used.set(true);
            return true;
        }
        let fn_scoped = items
            .fns
            .iter()
            .any(|f| f.header_line == next && line >= f.span.0 && line <= f.span.1);
        if fn_scoped {
            p.used.set(true);
            return true;
        }
    }
    false
}

/// Drops every finding a pragma covers (marking those pragmas used).
pub(crate) fn suppress(pragmas: &[Pragma], items: &FileItems, findings: &mut Vec<Finding>) {
    findings.retain(|f| !pragma_covers(pragmas, items, f.rule, f.line));
}

/// Appends a `lint-pragma` finding for every pragma that never suppressed
/// anything.
pub(crate) fn flag_unused_pragmas(rel: &str, pragmas: &[Pragma], findings: &mut Vec<Finding>) {
    for p in pragmas {
        if !p.used.get() {
            findings.push(Finding {
                file: rel.to_string(),
                line: p.line,
                col: 1,
                rule: names::LINT_PRAGMA,
                message: format!(
                    "pragma allow({}) suppresses nothing in its scope; remove it",
                    p.rule
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// Runs the per-file rules over a parsed file, appending findings.
/// Test-only regions come from the item parser's `cfg` evaluator, so
/// `cfg(all(test, …))` nesting is handled exactly.
pub(crate) fn run_rules(items: &FileItems, policy: &FilePolicy, findings: &mut Vec<Finding>) {
    let rel = items.rel.as_str();
    let toks = &items.toks[..];
    let in_tests = |line: u32| items.in_test_region(line);
    if !policy.allow_time {
        rule_ambient_time(rel, toks, findings);
    }
    rule_ambient_entropy(rel, toks, findings);
    rule_hash_order(rel, toks, findings);
    if policy.is_codec {
        rule_panic_free(rel, toks, &in_tests, findings);
    }
    if !policy.allow_unsafe {
        rule_no_unsafe(rel, toks, findings);
    }
    rule_float_reduction(rel, toks, &in_tests, findings);
}

/// Lints one file's source text in isolation (per-file rules plus pragma
/// resolution; the interprocedural passes need the whole workspace and
/// run from [`crate::lint_workspace`]). `rel` is the root-relative path
/// used in findings.
pub fn lint_source(rel: &str, src: &str, policy: &FilePolicy) -> Vec<Finding> {
    let items = FileItems::parse(rel, src);
    let (pragmas, mut findings) = parse_pragmas(rel, &items.comments);
    run_rules(&items, policy, &mut findings);
    suppress(&pragmas, &items, &mut findings);
    flag_unused_pragmas(rel, &pragmas, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// Parses pragmas out of the comment list. Malformed pragmas become
/// `lint-pragma` findings immediately.
pub(crate) fn parse_pragmas(rel: &str, comments: &[Comment]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_end_matches('/')
            .trim_end_matches('*')
            .trim();
        let Some(rest) = body.strip_prefix("arvis-lint:") else {
            continue;
        };
        let bad = |msg: String| Finding {
            file: rel.to_string(),
            line: c.line,
            col: 1,
            rule: names::LINT_PRAGMA,
            message: msg,
            chain: Vec::new(),
        };
        let rest = rest.trim();
        let Some(inner) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.trim_end().strip_suffix(')'))
        else {
            findings.push(bad(format!(
                "malformed pragma {body:?}: expected `arvis-lint: allow(<rule>, \"<justification>\")`"
            )));
            continue;
        };
        let Some((rule, justification)) = inner.split_once(',') else {
            findings.push(bad(format!(
                "pragma allow({inner}) is missing the justification string"
            )));
            continue;
        };
        let rule = rule.trim();
        let justification = justification.trim();
        if !is_rule(rule) {
            findings.push(bad(format!("pragma names unknown rule {rule:?}")));
            continue;
        }
        let quoted = justification.len() >= 2
            && justification.starts_with('"')
            && justification.ends_with('"');
        if !quoted || justification.len() == 2 {
            findings.push(bad(format!(
                "pragma allow({rule}) needs a non-empty quoted justification"
            )));
            continue;
        }
        pragmas.push(Pragma {
            rule: rule.to_string(),
            line: c.line,
            own_line: c.own_line,
            used: std::cell::Cell::new(false),
        });
    }
    (pragmas, findings)
}

fn push(findings: &mut Vec<Finding>, rel: &str, tok: &Tok, rule: &'static str, message: String) {
    findings.push(Finding {
        file: rel.to_string(),
        line: tok.line,
        col: tok.col,
        rule,
        message,
        chain: Vec::new(),
    });
}

/// no-ambient-time: any `Instant` / `SystemTime` identifier.
fn rule_ambient_time(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            push(
                out,
                rel,
                t,
                names::NO_AMBIENT_TIME,
                format!(
                    "ambient clock `{}` in deterministic code; slot counters are the only time source here",
                    t.text
                ),
            );
        }
    }
}

/// no-ambient-entropy: any `thread_rng` / `from_entropy` / `RandomState`.
fn rule_ambient_entropy(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("RandomState") {
            push(
                out,
                rel,
                t,
                names::NO_AMBIENT_ENTROPY,
                format!(
                    "ambient entropy source `{}`; every RNG in this workspace is explicitly seeded",
                    t.text
                ),
            );
        }
    }
}

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "difference",
    "intersection",
    "union",
    "symmetric_difference",
];

fn is_hash_ty(t: &Tok) -> bool {
    t.is_ident("HashMap") || t.is_ident("HashSet")
}

/// hash-order-iteration: iteration methods whose receiver is a binding,
/// field, or accessor the file declares as `HashMap`/`HashSet`.
///
/// This is a token-level heuristic (see crate docs): it tracks
/// `name: HashMap<…>` / `name: HashSet<…>` annotations (fields, lets,
/// params), `let name = HashMap::new()`-style initializers, and
/// `fn name(…) -> …HashMap…` accessors, then flags `recv.iter()` /
/// `recv.keys()` / set-algebra calls and `for … in recv {` loops on those
/// names.
fn rule_hash_order(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    use std::collections::BTreeSet;
    let mut hash_idents: BTreeSet<&str> = BTreeSet::new();
    let mut hash_fns: BTreeSet<&str> = BTreeSet::new();

    // Pass 1a: `name : …HashMap/HashSet…` type annotations. The type span
    // runs to the first depth-0 `,` `;` `=` `)` `{` `}`.
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || i + 2 >= toks.len() || !toks[i + 1].is_punct(':') {
            continue;
        }
        // `::` paths are not annotations.
        if toks[i + 2].is_punct(':') || (i > 0 && toks[i - 1].is_punct(':')) {
            continue;
        }
        let mut depth = 0i32;
        for t in toks.iter().skip(i + 2).take(64) {
            if depth == 0
                && (t.is_punct(',')
                    || t.is_punct(';')
                    || t.is_punct('=')
                    || t.is_punct(')')
                    || t.is_punct('{')
                    || t.is_punct('}'))
            {
                break;
            }
            if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                depth = (depth - 1).max(0);
            } else if is_hash_ty(t) {
                hash_idents.insert(toks[i].text.as_str());
                break;
            }
        }
    }

    // Pass 1b: `let [mut] name = [path::]HashMap::…` initializers.
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_ident("mut") {
            j += 1;
        }
        if j >= toks.len() || toks[j].kind != TokKind::Ident {
            continue;
        }
        let name = toks[j].text.as_str();
        let mut k = j + 1;
        if k >= toks.len() || !toks[k].is_punct('=') {
            continue;
        }
        k += 1;
        // Initializer head: a path of idents/`::`/turbofish generics.
        let mut found = false;
        for t in toks.iter().skip(k).take(24) {
            if t.kind == TokKind::Ident {
                if is_hash_ty(t) {
                    found = true;
                    break;
                }
            } else if !(t.is_punct(':') || t.is_punct('<') || t.is_punct('>') || t.is_punct(',')) {
                break;
            }
        }
        if found {
            hash_idents.insert(name);
        }
    }

    // Pass 1c: `fn name(…) -> …HashMap/HashSet…` accessors.
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") || i + 1 >= toks.len() || toks[i + 1].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i + 1].text.as_str();
        // Find the parameter list's closing paren.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('(') {
            j += 1;
        }
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        // Return type present?
        if !(j + 2 < toks.len() && toks[j + 1].is_punct('-') && toks[j + 2].is_punct('>')) {
            continue;
        }
        for t in toks.iter().skip(j + 3).take(32) {
            if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                break;
            }
            if is_hash_ty(t) {
                hash_fns.insert(name);
                break;
            }
        }
    }

    let flag = |out: &mut Vec<Finding>, tok: &Tok, recv: &str| {
        push(
            out,
            rel,
            tok,
            names::HASH_ORDER_ITERATION,
            format!(
                "`{recv}.{}` iterates in hash order; sort the result, use a deterministic \
                 container, or pragma-cite the downstream sort",
                tok.text
            ),
        );
    };

    // Pass 2a: `recv.method(` where method is order-sensitive.
    for i in 2..toks.len() {
        let t = &toks[i];
        let is_iter_call = t.kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&t.text.as_str())
            && toks[i - 1].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(');
        if !is_iter_call {
            continue;
        }
        let recv = &toks[i - 2];
        if recv.kind == TokKind::Ident && hash_idents.contains(recv.text.as_str()) {
            flag(out, t, &recv.text);
            continue;
        }
        // `….accessor().method(` — receiver is a call; match back to the
        // opening paren and look at the callee name.
        if recv.is_punct(')') {
            let mut depth = 0i32;
            let mut j = i - 2;
            loop {
                if toks[j].is_punct(')') {
                    depth += 1;
                } else if toks[j].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            if j > 0 {
                let callee = &toks[j - 1];
                if callee.kind == TokKind::Ident && hash_fns.contains(callee.text.as_str()) {
                    flag(out, t, &format!("{}()", callee.text));
                }
            }
        }
    }

    // Pass 2b: `for … in [&][mut] recv {`.
    for i in 0..toks.len() {
        if !toks[i].is_ident("in") {
            continue;
        }
        let mut j = i + 1;
        while j < toks.len() && (toks[j].is_punct('&') || toks[j].is_ident("mut")) {
            j += 1;
        }
        if j + 1 < toks.len()
            && toks[j].kind == TokKind::Ident
            && hash_idents.contains(toks[j].text.as_str())
            && toks[j + 1].is_punct('{')
        {
            push(
                out,
                rel,
                &toks[j],
                names::HASH_ORDER_ITERATION,
                format!(
                    "`for … in {}` iterates in hash order; sort the keys first or use a \
                     deterministic container",
                    toks[j].text
                ),
            );
        }
    }
}

/// panic-free-codecs: `.unwrap()` / `.expect(` / `panic!` / `unreachable!`
/// / `todo!` / `unimplemented!` outside `#[cfg(test)]` regions of codec
/// files.
fn rule_panic_free(
    rel: &str,
    toks: &[Tok],
    in_tests: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_tests(t.line) {
            continue;
        }
        let method_call = |name: &str| {
            t.is_ident(name)
                && i > 0
                && toks[i - 1].is_punct('.')
                && i + 1 < toks.len()
                && toks[i + 1].is_punct('(')
        };
        let bang_macro =
            |name: &str| t.is_ident(name) && i + 1 < toks.len() && toks[i + 1].is_punct('!');
        if method_call("unwrap") || method_call("expect") {
            push(
                out,
                rel,
                t,
                names::PANIC_FREE_CODECS,
                format!(
                    "`.{}()` in a codec path; codecs return positioned errors, never panic",
                    t.text
                ),
            );
        } else if bang_macro("panic")
            || bang_macro("unreachable")
            || bang_macro("todo")
            || bang_macro("unimplemented")
        {
            push(
                out,
                rel,
                t,
                names::PANIC_FREE_CODECS,
                format!(
                    "`{}!` in a codec path; codecs return positioned errors, never panic",
                    t.text
                ),
            );
        }
    }
}

/// no-unsafe: the `unsafe` keyword anywhere outside the allowlist.
fn rule_no_unsafe(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if t.is_kw("unsafe") {
            push(
                out,
                rel,
                t,
                names::NO_UNSAFE,
                "`unsafe` outside the allowlist; the workspace kernels are forbid(unsafe_code)"
                    .to_string(),
            );
        }
    }
}

/// Whether the file is parallel-bearing: it has a `cfg` gate on a
/// `"parallel"` feature or calls the `arvis_par` chunked fan-out
/// primitives. Shared with the taint pass's float-source detection.
pub(crate) fn is_parallel_bearing(toks: &[Tok]) -> bool {
    let has_cfg_parallel = toks.iter().any(|t| t.is_ident("cfg"))
        && toks.iter().any(|t| t.is_ident("feature"))
        && toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "parallel");
    let par_primitives = [
        "map_chunks",
        "for_each_chunk",
        "for_each_chunk_mut",
        "for_each_task",
    ];
    let uses_par = toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && par_primitives.contains(&t.text.as_str()));
    has_cfg_parallel || uses_par
}

/// Token indices of every bare `.sum::<f32|f64>` reduction head (the
/// `sum` identifier of `.sum ::< f32|f64 > (`).
pub(crate) fn float_sum_sites(toks: &[Tok]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 1..toks.len() {
        let t = &toks[i];
        if !t.is_ident("sum") || !toks[i - 1].is_punct('.') {
            continue;
        }
        let rest = &toks[i + 1..];
        let is_turbofish_float = rest.len() >= 5
            && rest[0].is_punct(':')
            && rest[1].is_punct(':')
            && rest[2].is_punct('<')
            && (rest[3].is_ident("f32") || rest[3].is_ident("f64"))
            && rest[4].is_punct('>');
        if is_turbofish_float {
            out.push(i);
        }
    }
    out
}

/// float-reduction-order: `.sum::<f32>()` / `.sum::<f64>()` in a module
/// that bears a `cfg` gate on a `"parallel"` feature or calls the
/// `arvis_par` chunked fan-out primitives, outside test regions.
fn rule_float_reduction(
    rel: &str,
    toks: &[Tok],
    in_tests: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    if !is_parallel_bearing(toks) {
        return;
    }
    for i in float_sum_sites(toks) {
        let t = &toks[i];
        if in_tests(t.line) {
            continue;
        }
        let elem = &toks[i + 4].text;
        push(
            out,
            rel,
            t,
            names::FLOAT_REDUCTION_ORDER,
            format!(
                "bare `.sum::<{elem}>()` in a parallel-bearing module; float addition is not \
                 associative — route through the arvis_par chunked reducers or pragma-cite \
                 the fixed reduction order"
            ),
        );
    }
}
