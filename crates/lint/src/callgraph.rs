//! Stage 2b: call-site extraction and the workspace call graph.
//!
//! For every parsed function ([`crate::items::FnItem`]) this module
//! extracts its call sites from the token stream and resolves each one
//! against the workspace's function set by **suffix-qualified path
//! matching**: the segments written at the call site (`use`-expanded, with
//! `crate`/`self`/`super`/`Self` normalized) must be a suffix of a
//! function's qualified path (`[crate, modules…, ImplType?, name]`).
//!
//! Resolution is deliberately conservative, in both directions:
//!
//! * a call that matches **no** workspace function (std, vendored shims,
//!   closures) is [`Targets::External`] — taint never propagates through
//!   it;
//! * a call that matches **several** functions is [`Targets::Multiple`] —
//!   the taint pass treats it as tainted only when *every* candidate is
//!   tainted, so an ambiguous name cannot manufacture a false chain;
//! * bare unqualified calls (`helper()`) resolve only within the caller's
//!   own module (plus its `use` imports), matching real scoping rules
//!   closely enough that a same-named function in another crate is never
//!   dragged in.

use std::collections::BTreeMap;

use crate::items::{FileItems, KEYWORDS};
use crate::lexer::{Tok, TokKind};

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the callee-name token in the file's token stream.
    pub tok: usize,
    /// 1-based line of the callee-name token.
    pub line: u32,
    /// 1-based column of the callee-name token.
    pub col: u32,
    /// Path segments as written (`octree::build` → `["octree","build"]`);
    /// method calls carry just the method name.
    pub segments: Vec<String>,
    /// `.name(…)` method-call form.
    pub is_method: bool,
    /// The receiver is literally `self` (`self.name(…)`), which pins
    /// method resolution to the caller's own impl type.
    pub recv_self: bool,
}

/// Resolution of one call site against the workspace function set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Targets {
    /// No workspace function matches (std, vendored, closure, macro).
    External,
    /// Exactly one function matches (global fn index).
    Unique(usize),
    /// Several functions match; propagation requires all of them tainted.
    Multiple(Vec<usize>),
}

/// A resolved call edge out of a function.
#[derive(Debug, Clone)]
pub struct Edge {
    /// The syntactic site.
    pub site: CallSite,
    /// What it resolves to.
    pub targets: Targets,
}

/// The workspace call graph over a parsed file set.
#[derive(Debug)]
pub struct CallGraph {
    /// Flat function table: global fn index → (file index, item index).
    pub fns: Vec<(usize, usize)>,
    /// Outgoing resolved edges per global fn index.
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph over `files` (same order as the lint walk, so the
    /// graph — and everything derived from it — is deterministic).
    pub fn build(files: &[FileItems]) -> CallGraph {
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for ii in 0..f.fns.len() {
                fns.push((fi, ii));
            }
        }
        // Name index for candidate lookup.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (gid, &(fi, ii)) in fns.iter().enumerate() {
            by_name
                .entry(files[fi].fns[ii].name.as_str())
                .or_default()
                .push(gid);
        }
        let mut edges = Vec::with_capacity(fns.len());
        for &(fi, ii) in &fns {
            let file = &files[fi];
            let item = &file.fns[ii];
            let sites = extract_calls(&file.toks, item.body);
            let resolved: Vec<Edge> = sites
                .into_iter()
                .map(|site| {
                    let targets = resolve(&site, fi, ii, files, &fns, &by_name);
                    Edge { site, targets }
                })
                .collect();
            edges.push(resolved);
        }
        CallGraph { fns, edges }
    }
}

/// Extracts the call sites in the token range `body` (a function body,
/// braces included).
pub fn extract_calls(toks: &[Tok], body: (usize, usize)) -> Vec<CallSite> {
    let mut out = Vec::new();
    let (start, end) = body;
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Keywords are never call names (`if (…)`, `while (…)`, `return (…)`)
        // — but raw identifiers (`r#type`) are fine.
        if !t.raw && KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // Declarations are not calls: `fn name(…)`.
        if i > 0 && toks[i - 1].is_kw("fn") {
            continue;
        }
        // After the name: optional turbofish `::<…>`, then `(` — else not
        // a call. A following `!` is a macro invocation.
        let mut j = i + 1;
        if j + 2 < toks.len()
            && toks[j].is_punct(':')
            && toks[j + 1].is_punct(':')
            && toks[j + 2].is_punct('<')
        {
            j = skip_angles(toks, j + 2);
        }
        if j >= end || !toks[j].is_punct('(') {
            continue;
        }
        if toks[i + 1].is_punct('!') {
            continue; // `name!(…)` macro
        }
        if i > 0 && toks[i - 1].is_punct('.') {
            let recv_self =
                i >= 2 && toks[i - 2].is_kw("self") && !(i >= 3 && toks[i - 3].is_punct('.'));
            out.push(CallSite {
                tok: i,
                line: t.line,
                col: t.col,
                segments: vec![t.text.clone()],
                is_method: true,
                recv_self,
            });
            continue;
        }
        // Walk back over `seg ::` prefixes to collect the written path.
        let mut segments = vec![t.text.clone()];
        let mut k = i;
        while k >= 3
            && toks[k - 1].is_punct(':')
            && toks[k - 2].is_punct(':')
            && toks[k - 3].kind == TokKind::Ident
        {
            segments.insert(0, toks[k - 3].text.clone());
            k -= 3;
        }
        out.push(CallSite {
            tok: i,
            line: t.line,
            col: t.col,
            segments,
            is_method: false,
            recv_self: false,
        });
    }
    out
}

/// Index one past a balanced `<…>` group starting at `i` (which holds `<`).
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if toks[j].is_punct('{') || toks[j].is_punct(';') {
            return j;
        }
        j += 1;
    }
    j
}

/// Resolves one call site from the function `(fi, ii)`.
fn resolve(
    site: &CallSite,
    fi: usize,
    ii: usize,
    files: &[FileItems],
    fns: &[(usize, usize)],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Targets {
    let file = &files[fi];
    let caller = &file.fns[ii];
    let name = site.segments.last().map(String::as_str).unwrap_or("");
    let Some(candidates) = by_name.get(name) else {
        return Targets::External;
    };
    if site.is_method {
        // Only functions that take `self` can be method-called.
        let mut cands: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&gid| {
                let (cf, ci) = fns[gid];
                files[cf].fns[ci].has_self
            })
            .collect();
        // `self.name(…)` pins resolution to the caller's own type (same
        // impl type name within the same crate).
        if site.recv_self {
            if let Some(ty) = &caller.impl_type {
                let own: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&gid| {
                        let (cf, ci) = fns[gid];
                        let cand = &files[cf].fns[ci];
                        cand.impl_type.as_deref() == Some(ty)
                            && cand.module.first() == caller.module.first()
                    })
                    .collect();
                if !own.is_empty() {
                    cands = own;
                }
            }
        }
        return finish(cands);
    }
    // Path call: expand `use` aliases on the leading segment, normalize
    // path keywords (`use crate::…` stores the keyword too), then
    // suffix-match against qualified fn paths.
    let mut segs: Vec<String> = site.segments.clone();
    if !matches!(segs[0].as_str(), "crate" | "self" | "super" | "Self") {
        if let Some(path) = file.expand_use(&segs[0]) {
            let rest = segs.split_off(1);
            segs = path.to_vec();
            segs.extend(rest);
        }
    }
    match segs[0].as_str() {
        "crate" => {
            segs.remove(0);
            if let Some(root) = caller.module.first() {
                segs.insert(0, root.clone());
            }
        }
        "self" => {
            segs.remove(0);
            for m in caller.module.iter().rev() {
                segs.insert(0, m.clone());
            }
        }
        "super" => {
            segs.remove(0);
            let parent = &caller.module[..caller.module.len().saturating_sub(1)];
            for m in parent.iter().rev() {
                segs.insert(0, m.clone());
            }
        }
        "Self" => {
            if let Some(ty) = &caller.impl_type {
                segs[0] = ty.clone();
                for m in caller.module.iter().rev() {
                    segs.insert(0, m.clone());
                }
            }
        }
        _ => {}
    }
    if segs.len() == 1 {
        // Bare call: visible items are the caller's own module (imports
        // were already expanded above). Anything else is prelude/std.
        let cands: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&gid| {
                let (cf, ci) = fns[gid];
                let cand = &files[cf].fns[ci];
                cand.impl_type.is_none() && cand.module == caller.module
            })
            .collect();
        return finish(cands);
    }
    let cands: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&gid| {
            let (cf, ci) = fns[gid];
            let path = files[cf].fns[ci].path_segments();
            path.len() >= segs.len() && path[path.len() - segs.len()..] == segs[..]
        })
        .collect();
    finish(cands)
}

fn finish(mut cands: Vec<usize>) -> Targets {
    cands.sort_unstable();
    cands.dedup();
    match cands.len() {
        0 => Targets::External,
        1 => Targets::Unique(cands[0]),
        _ => Targets::Multiple(cands),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileItems;

    fn graph(files: &[(&str, &str)]) -> (Vec<FileItems>, CallGraph) {
        let parsed: Vec<FileItems> = files
            .iter()
            .map(|(rel, src)| FileItems::parse(rel, src))
            .collect();
        let g = CallGraph::build(&parsed);
        (parsed, g)
    }

    fn fn_named(files: &[FileItems], g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|&(fi, ii)| files[fi].fns[ii].name == name)
            .unwrap()
    }

    #[test]
    fn extracts_paths_methods_and_skips_macros() {
        let f = FileItems::parse(
            "crates/core/src/a.rs",
            "fn caller(x: &W) {\n\
                 helper();\n\
                 octree::build(x);\n\
                 x.probe::<u64>();\n\
                 println!(\"not a call\");\n\
                 if (x.ready()) {}\n\
             }\n",
        );
        let sites = extract_calls(&f.toks, f.fns[0].body);
        let names: Vec<(String, bool)> = sites
            .iter()
            .map(|s| (s.segments.join("::"), s.is_method))
            .collect();
        assert_eq!(
            names,
            vec![
                ("helper".to_string(), false),
                ("octree::build".to_string(), false),
                ("probe".to_string(), true),
                ("ready".to_string(), true),
            ]
        );
    }

    #[test]
    fn bare_calls_resolve_same_module_only() {
        let (files, g) = graph(&[
            (
                "crates/core/src/a.rs",
                "fn helper() {}\nfn caller() { helper(); }\n",
            ),
            ("crates/octree/src/b.rs", "fn helper() {}\n"),
        ]);
        let caller = fn_named(&files, &g, "caller");
        let target = fn_named(&files, &g, "helper");
        assert_eq!(g.edges[caller][0].targets, Targets::Unique(target));
        // The same-module candidate wins; the octree one is not included.
        let (fi, _) = g.fns[target];
        assert_eq!(files[fi].rel, "crates/core/src/a.rs");
    }

    #[test]
    fn qualified_calls_suffix_match_across_crates() {
        let (files, g) = graph(&[
            (
                "crates/core/src/session.rs",
                "fn run() { octree::build(); crate::scenario::load(); }\n",
            ),
            ("crates/octree/src/octree.rs", "pub fn build() {}\n"),
            ("crates/core/src/scenario.rs", "pub fn load() {}\n"),
        ]);
        let run = fn_named(&files, &g, "run");
        let build = fn_named(&files, &g, "build");
        let load = fn_named(&files, &g, "load");
        assert_eq!(g.edges[run][0].targets, Targets::Unique(build));
        assert_eq!(g.edges[run][1].targets, Targets::Unique(load));
    }

    #[test]
    fn use_imports_qualify_bare_calls() {
        let (files, g) = graph(&[
            (
                "crates/core/src/a.rs",
                "use crate::scenario::load;\nfn caller() { load(); }\n",
            ),
            ("crates/core/src/scenario.rs", "pub fn load() {}\n"),
            ("crates/bench/src/other.rs", "pub fn load() {}\n"),
        ]);
        let caller = fn_named(&files, &g, "caller");
        match &g.edges[caller][0].targets {
            Targets::Unique(t) => {
                let (fi, _) = g.fns[*t];
                assert_eq!(files[fi].rel, "crates/core/src/scenario.rs");
            }
            other => panic!("expected unique resolution, got {other:?}"),
        }
    }

    #[test]
    fn self_method_calls_pin_to_own_impl() {
        let (files, g) = graph(&[
            (
                "crates/core/src/a.rs",
                "pub struct A;\nimpl A { fn step(&self) {}\nfn run(&self) { self.step(); } }\n",
            ),
            (
                "crates/octree/src/b.rs",
                "pub struct B;\nimpl B { fn step(&self) {} }\n",
            ),
        ]);
        let run = fn_named(&files, &g, "run");
        match &g.edges[run][0].targets {
            Targets::Unique(t) => {
                let (fi, ii) = g.fns[*t];
                assert_eq!(files[fi].fns[ii].impl_type.as_deref(), Some("A"));
            }
            other => panic!("expected unique resolution, got {other:?}"),
        }
    }

    #[test]
    fn ambiguous_methods_resolve_to_multiple() {
        let (files, g) = graph(&[
            (
                "crates/core/src/a.rs",
                "pub struct A;\nimpl A { pub fn step(&self) {} }\nfn drive(x: &A) { x.step(); }\n",
            ),
            (
                "crates/octree/src/b.rs",
                "pub struct B;\nimpl B { pub fn step(&self) {} }\n",
            ),
        ]);
        let drive = fn_named(&files, &g, "drive");
        match &g.edges[drive][0].targets {
            Targets::Multiple(ts) => assert_eq!(ts.len(), 2),
            other => panic!("expected multiple candidates, got {other:?}"),
        }
    }

    #[test]
    fn std_calls_stay_external() {
        let (files, g) = graph(&[(
            "crates/core/src/a.rs",
            "fn caller() { std::mem::take(&mut 0); Vec::new(); format(1); }\n",
        )]);
        let caller = fn_named(&files, &g, "caller");
        for e in &g.edges[caller] {
            assert_eq!(e.targets, Targets::External, "{:?}", e.site.segments);
        }
    }
}
