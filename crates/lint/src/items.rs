//! Stage 1 of the analyzer: an item parser on top of the lexer.
//!
//! Turns one file's token stream into the items the workspace passes need:
//! `fn` items (with spans, body token ranges, enclosing module path and
//! impl type), `use` trees (alias → full path), and `cfg` scopes. Together
//! with the file's root-relative path this yields a workspace-wide item
//! graph — the input of the call-graph/taint stage ([`crate::callgraph`],
//! [`crate::taint`]).
//!
//! Like the lexer, this is deliberately *not* a full parser: it recognizes
//! item heads and brace-matches their bodies. Items nested inside function
//! bodies are attributed to the enclosing function (their calls count as
//! the outer function's calls), and `macro_rules!` bodies are skipped as
//! opaque groups.

use crate::lexer::{self, Comment, Tok, TokKind};

/// Three-valued truth for `cfg` predicates evaluated under a **non-test**
/// build: `test` is [`CfgTruth::False`], every other predicate (features,
/// target properties) is [`CfgTruth::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfgTruth {
    /// Definitely compiled in a non-test build.
    True,
    /// Definitely *not* compiled in a non-test build — a test-only region.
    False,
    /// Depends on flags the linter does not model.
    Unknown,
}

impl CfgTruth {
    fn not(self) -> CfgTruth {
        match self {
            CfgTruth::True => CfgTruth::False,
            CfgTruth::False => CfgTruth::True,
            CfgTruth::Unknown => CfgTruth::Unknown,
        }
    }
}

/// Evaluates the `cfg` expression in `toks` (the tokens *between* the
/// outer parentheses of `#[cfg(…)]`) under a non-test build.
///
/// Grammar handled: `test`, `not(expr)`, `all(expr, …)`, `any(expr, …)`,
/// and arbitrary other predicates (`feature = "x"`, `unix`, …) which
/// evaluate to [`CfgTruth::Unknown`]. A region is test-only exactly when
/// the whole expression evaluates to [`CfgTruth::False`] — e.g.
/// `all(test, feature = "slow")` is test-only, `any(test, feature = "x")`
/// is not (it may be compiled without `cfg(test)`), and
/// `not(any(test, foo))` is not (it guards *non*-test code).
pub fn eval_cfg(toks: &[Tok]) -> CfgTruth {
    let (truth, _) = eval_cfg_at(toks, 0);
    truth
}

fn eval_cfg_at(toks: &[Tok], mut i: usize) -> (CfgTruth, usize) {
    let Some(head) = toks.get(i) else {
        return (CfgTruth::Unknown, i);
    };
    if head.kind != TokKind::Ident {
        return (CfgTruth::Unknown, i + 1);
    }
    let combinator = matches!(head.text.as_str(), "not" | "all" | "any")
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
    if !combinator {
        // A leaf predicate: `test` is false off the test profile; anything
        // else (including `feature = "…"` — skip its value) is unknown.
        let truth = if head.is_ident("test") {
            CfgTruth::False
        } else {
            CfgTruth::Unknown
        };
        i += 1;
        if toks.get(i).is_some_and(|t| t.is_punct('=')) {
            i += 2; // `= "value"`
        }
        return (truth, i);
    }
    let op = head.text.clone();
    i += 2; // name + `(`
    let mut args = Vec::new();
    loop {
        match toks.get(i) {
            None => break,
            Some(t) if t.is_punct(')') => {
                i += 1;
                break;
            }
            Some(t) if t.is_punct(',') => {
                i += 1;
            }
            Some(_) => {
                let (truth, next) = eval_cfg_at(toks, i);
                // Defensive: always make progress on malformed input.
                i = next.max(i + 1);
                args.push(truth);
            }
        }
    }
    let truth = match op.as_str() {
        "not" => args.first().copied().unwrap_or(CfgTruth::Unknown).not(),
        "all" => {
            if args.contains(&CfgTruth::False) {
                CfgTruth::False
            } else if args.iter().all(|&a| a == CfgTruth::True) {
                CfgTruth::True
            } else {
                CfgTruth::Unknown
            }
        }
        // `any`
        _ => {
            if args.contains(&CfgTruth::True) {
                CfgTruth::True
            } else if args.iter().all(|&a| a == CfgTruth::False) {
                CfgTruth::False
            } else {
                CfgTruth::Unknown
            }
        }
    };
    (truth, i)
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Enclosing module path segments (derived from the file path plus
    /// inline `mod` blocks), e.g. `["arvis_core", "scenario"]`.
    pub module: Vec<String>,
    /// The impl (or trait) type the fn is a member of, when any.
    pub impl_type: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line/column of the name token.
    pub line: u32,
    /// Column of the name token.
    pub col: u32,
    /// First line of the item, attributes included — the anchor line for
    /// function-scoped pragmas (a pragma directly above this line covers
    /// the whole item).
    pub header_line: u32,
    /// Inclusive line span of the whole item (attributes through the
    /// closing brace).
    pub span: (u32, u32),
    /// Token index range (exclusive end) of the body, braces included.
    pub body: (usize, usize),
    /// True when the parameter list declares `self` (an inherent/trait
    /// method rather than a free function).
    pub has_self: bool,
    /// True when the item is only compiled under `cfg(test)` (its own
    /// attributes or any enclosing scope), or carries `#[test]`.
    pub in_test: bool,
}

impl FnItem {
    /// The display path used in taint chains: module segments, the impl
    /// type when any, then the name — `arvis_core::session::SessionBatch::run`.
    pub fn display(&self) -> String {
        let mut parts: Vec<&str> = self.module.iter().map(String::as_str).collect();
        if let Some(ty) = &self.impl_type {
            parts.push(ty);
        }
        parts.push(&self.name);
        parts.join("::")
    }

    /// The full qualified path segments (module + impl type + name), for
    /// suffix matching.
    pub fn path_segments(&self) -> Vec<String> {
        let mut parts = self.module.clone();
        if let Some(ty) = &self.impl_type {
            parts.push(ty.clone());
        }
        parts.push(self.name.clone());
        parts
    }
}

/// The parse of one file: its token stream plus the extracted items.
#[derive(Debug)]
pub struct FileItems {
    /// Root-relative path with `/` separators.
    pub rel: String,
    /// The file's code tokens (rules index into this).
    pub toks: Vec<Tok>,
    /// The file's comments (pragma parsing).
    pub comments: Vec<Comment>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// `use` aliases: local name → full path segments
    /// (`Instant` → `["std", "time", "Instant"]`).
    pub uses: Vec<(String, Vec<String>)>,
    /// Inclusive line spans of test-only regions (`#[cfg(test)]` mods and
    /// impls, `#[test]`/test-only fns).
    pub test_regions: Vec<(u32, u32)>,
}

impl FileItems {
    /// Lexes and parses one file.
    pub fn parse(rel: &str, src: &str) -> FileItems {
        let lexed = lexer::lex(src);
        let mut out = FileItems {
            rel: rel.to_string(),
            toks: lexed.toks,
            comments: lexed.comments,
            fns: Vec::new(),
            uses: Vec::new(),
            test_regions: Vec::new(),
        };
        let mut module = module_path_of(rel);
        let end = out.toks.len();
        let toks = std::mem::take(&mut out.toks);
        let mut p = Parser {
            toks: &toks,
            out: &mut out,
        };
        p.parse_items(0, end, &mut module, None, false);
        out.toks = toks;
        out.test_regions.sort_unstable();
        out
    }

    /// True when `line` falls in a test-only region.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    /// Expands a leading path segment through the file's `use` aliases:
    /// `Instant` → `std::time::Instant` when the file imports it.
    pub fn expand_use(&self, name: &str) -> Option<&[String]> {
        self.uses
            .iter()
            .find(|(alias, _)| alias == name)
            .map(|(_, path)| path.as_slice())
    }
}

/// Derives a module path from a root-relative file path. Crate layouts
/// (`crates/<name>/src/<mod>.rs`) map to `arvis_<name>::<mod>`; the root
/// crate's `src/lib.rs` maps to `arvis`; everything else (tests, examples,
/// benches, bins) uses its path components, which is all suffix matching
/// needs.
fn module_path_of(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let mut out = Vec::new();
    let strip = |s: &str| s.trim_end_matches(".rs").replace('-', "_");
    if parts.len() >= 3 && parts[0] == "crates" && parts[2] == "src" {
        out.push(format!("arvis_{}", strip(parts[1])));
        for p in &parts[3..] {
            let m = strip(p);
            if m != "lib" && m != "mod" && m != "main" && m != "bin" {
                out.push(m);
            }
        }
    } else if parts.first() == Some(&"src") {
        out.push("arvis".to_string());
        for p in &parts[1..] {
            let m = strip(p);
            if m != "lib" && m != "mod" && m != "main" {
                out.push(m);
            }
        }
    } else {
        for p in &parts {
            let m = strip(p);
            if !m.is_empty() {
                out.push(m);
            }
        }
    }
    out
}

/// Rust item/expression keywords that can never be call names.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

/// One pending attribute: its token range and starting line.
struct Attr {
    start: usize,
    end: usize,
    line: u32,
}

struct Parser<'a> {
    toks: &'a [Tok],
    out: &'a mut FileItems,
}

impl<'a> Parser<'a> {
    /// Parses the item sequence in `[i, end)` with the given scope
    /// context; `impl_type` is the enclosing impl/trait type, `in_test`
    /// whether an enclosing scope is test-only.
    fn parse_items(
        &mut self,
        mut i: usize,
        end: usize,
        module: &mut Vec<String>,
        impl_type: Option<&str>,
        in_test: bool,
    ) {
        let mut attrs: Vec<Attr> = Vec::new();
        while i < end {
            let t = &self.toks[i];
            // Attributes: `#[…]` / `#![…]`.
            if t.is_punct('#') {
                let mut j = i + 1;
                if j < end && self.toks[j].is_punct('!') {
                    j += 1;
                }
                if j < end && self.toks[j].is_punct('[') {
                    let close = self.match_group(j, end, '[', ']');
                    attrs.push(Attr {
                        start: i,
                        end: close,
                        line: t.line,
                    });
                    i = close;
                    continue;
                }
                i += 1;
                continue;
            }
            if t.kind != TokKind::Ident || t.raw {
                // Stray punctuation/tokens between items: skip, balancing
                // groups so initializer braces never desync the scan.
                i = self.skip_token(i, end);
                continue;
            }
            match t.text.as_str() {
                "mod" if t.is_kw("mod") => {
                    i = self.parse_mod(i, end, module, impl_type, in_test, &attrs);
                    attrs.clear();
                }
                "impl" if t.is_kw("impl") => {
                    i = self.parse_impl(i, end, module, in_test, &attrs);
                    attrs.clear();
                }
                "trait" if t.is_kw("trait") => {
                    i = self.parse_trait(i, end, module, in_test, &attrs);
                    attrs.clear();
                }
                "fn" if t.is_kw("fn") => {
                    i = self.parse_fn(i, end, module, impl_type, in_test, &attrs);
                    attrs.clear();
                }
                "struct" | "enum" if t.is_kw(&t.text.clone()) => {
                    i = self.skip_type(i, end);
                    attrs.clear();
                }
                "use" if t.is_kw("use") => {
                    i = self.parse_use(i, end);
                    attrs.clear();
                }
                "macro_rules" => {
                    // `macro_rules! name { opaque }` — skip the whole body
                    // (its tokens are patterns, not code).
                    let mut j = i + 1;
                    while j < end && !self.toks[j].is_punct('{') && !self.toks[j].is_punct('(') {
                        j += 1;
                    }
                    i = if j < end && self.toks[j].is_punct('{') {
                        self.match_group(j, end, '{', '}')
                    } else if j < end {
                        self.match_group(j, end, '(', ')')
                    } else {
                        end
                    };
                    attrs.clear();
                }
                _ => {
                    i = self.skip_token(i, end);
                }
            }
        }
    }

    /// Skips one token; when it opens a group, skips the balanced group.
    fn skip_token(&self, i: usize, end: usize) -> usize {
        let t = &self.toks[i];
        if t.is_punct('{') {
            self.match_group(i, end, '{', '}')
        } else if t.is_punct('(') {
            self.match_group(i, end, '(', ')')
        } else if t.is_punct('[') {
            self.match_group(i, end, '[', ']')
        } else {
            i + 1
        }
    }

    /// Index one past the matching closer of the group opening at `i`.
    fn match_group(&self, i: usize, end: usize, open: char, close: char) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            if self.toks[j].is_punct(open) {
                depth += 1;
            } else if self.toks[j].is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    /// Whether these attributes make the item test-only: `#[test]`, or a
    /// `#[cfg(…)]` whose expression is false off the test profile.
    fn attrs_mark_test(&self, attrs: &[Attr]) -> bool {
        for a in attrs {
            let toks = &self.toks[a.start..a.end];
            // `#[test]` (also `#[tokio::test]`-style suffixes).
            let inner: Vec<&Tok> = toks
                .iter()
                .filter(|t| !t.is_punct('#') && !t.is_punct('[') && !t.is_punct(']'))
                .collect();
            if inner.len() == 1 && inner[0].is_ident("test") {
                return true;
            }
            // `#[cfg(EXPR)]`.
            if inner.first().is_some_and(|t| t.is_ident("cfg"))
                && inner.get(1).is_some_and(|t| t.is_punct('('))
            {
                let expr: Vec<Tok> = inner[2..inner.len().saturating_sub(1)]
                    .iter()
                    .map(|t| (*t).clone())
                    .collect();
                if eval_cfg(&expr) == CfgTruth::False {
                    return true;
                }
            }
        }
        false
    }

    fn header_line(&self, i: usize, attrs: &[Attr]) -> u32 {
        // The item starts at its first attribute, else at the first
        // leading keyword (`pub`, `const`, …) on the same statement — walk
        // back over contiguous modifier idents.
        let mut line = attrs.first().map_or(self.toks[i].line, |a| a.line);
        let mut j = i;
        while j > 0 {
            let prev = &self.toks[j - 1];
            let modifier = (prev.kind == TokKind::Ident
                && matches!(
                    prev.text.as_str(),
                    "pub" | "const" | "async" | "unsafe" | "extern" | "default"
                ))
                || prev.is_punct(')'); // `pub(crate)` closer
            if !modifier {
                break;
            }
            if prev.is_punct(')') {
                // Walk back over `pub ( crate )`.
                let mut k = j - 1;
                while k > 0 && !self.toks[k].is_punct('(') {
                    k -= 1;
                }
                j = k;
                continue;
            }
            j -= 1;
            line = line.min(self.toks[j].line);
        }
        line.min(self.toks[i].line)
    }

    fn parse_mod(
        &mut self,
        i: usize,
        end: usize,
        module: &mut Vec<String>,
        impl_type: Option<&str>,
        in_test: bool,
        attrs: &[Attr],
    ) -> usize {
        let Some(name) = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            return i + 1;
        };
        let name_text = name.text.clone();
        let mut j = i + 2;
        while j < end && !self.toks[j].is_punct('{') && !self.toks[j].is_punct(';') {
            j += 1;
        }
        if j >= end || self.toks[j].is_punct(';') {
            return j.saturating_add(1).min(end); // `mod name;` — out-of-line
        }
        let close = self.match_group(j, end, '{', '}');
        let test = in_test || self.attrs_mark_test(attrs);
        if test && !in_test {
            let start = self.header_line(i, attrs);
            let end_line = self.toks[close.saturating_sub(1).min(self.toks.len() - 1)].line;
            self.out.test_regions.push((start, end_line));
        }
        module.push(name_text);
        self.parse_items(j + 1, close - 1, module, impl_type, test);
        module.pop();
        close
    }

    fn parse_impl(
        &mut self,
        i: usize,
        end: usize,
        module: &mut Vec<String>,
        in_test: bool,
        attrs: &[Attr],
    ) -> usize {
        // `impl [<…>] [Trait for] Type [<…>] [where …] {`.
        let mut j = i + 1;
        if j < end && self.toks[j].is_punct('<') {
            j = self.match_angles(j, end);
        }
        // Collect the head up to `{`, remembering the last path ident
        // before generics; `Trait for Type` keeps the ident after `for`.
        let mut ty: Option<String> = None;
        let mut k = j;
        while k < end && !self.toks[k].is_punct('{') && !self.toks[k].is_punct(';') {
            let t = &self.toks[k];
            if t.is_kw("for") {
                ty = None;
                k += 1;
                continue;
            }
            if t.is_kw("where") {
                break;
            }
            if t.kind == TokKind::Ident && !t.is_kw("dyn") {
                ty = Some(t.text.clone());
            }
            if t.is_punct('<') {
                k = self.match_angles(k, end);
                continue;
            }
            k += 1;
        }
        while k < end && !self.toks[k].is_punct('{') && !self.toks[k].is_punct(';') {
            k += 1;
        }
        if k >= end || self.toks[k].is_punct(';') {
            return k.saturating_add(1).min(end);
        }
        let close = self.match_group(k, end, '{', '}');
        let test = in_test || self.attrs_mark_test(attrs);
        if test && !in_test {
            let start = self.header_line(i, attrs);
            let end_line = self.toks[close.saturating_sub(1).min(self.toks.len() - 1)].line;
            self.out.test_regions.push((start, end_line));
        }
        let ty = ty.unwrap_or_default();
        self.parse_items(k + 1, close - 1, module, Some(&ty), test);
        close
    }

    fn parse_trait(
        &mut self,
        i: usize,
        end: usize,
        module: &mut Vec<String>,
        in_test: bool,
        attrs: &[Attr],
    ) -> usize {
        let Some(name) = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            return i + 1;
        };
        let name_text = name.text.clone();
        let mut j = i + 2;
        while j < end && !self.toks[j].is_punct('{') && !self.toks[j].is_punct(';') {
            j = self.skip_token(j, end).max(j + 1);
        }
        if j >= end || self.toks[j].is_punct(';') {
            return j.saturating_add(1).min(end);
        }
        let close = self.match_group(j, end, '{', '}');
        let test = in_test || self.attrs_mark_test(attrs);
        self.parse_items(j + 1, close - 1, module, Some(&name_text), test);
        close
    }

    /// Index one past a balanced `<…>` group (single-char `<`/`>` puncts,
    /// so `>>` closes two levels naturally).
    fn match_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            if self.toks[j].is_punct('<') {
                depth += 1;
            } else if self.toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            } else if self.toks[j].is_punct('{') || self.toks[j].is_punct(';') {
                return j; // defensive: a `<` that was a comparison
            }
            j += 1;
        }
        end
    }

    fn parse_fn(
        &mut self,
        i: usize,
        end: usize,
        module: &[String],
        impl_type: Option<&str>,
        in_test: bool,
        attrs: &[Attr],
    ) -> usize {
        let Some(name) = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            return i + 1; // `fn(` pointer type or malformed
        };
        let (name_text, name_line, name_col) = (name.text.clone(), name.line, name.col);
        // Parameter list.
        let mut j = i + 2;
        if j < end && self.toks[j].is_punct('<') {
            j = self.match_angles(j, end);
        }
        if j >= end || !self.toks[j].is_punct('(') {
            return i + 2;
        }
        let params_close = self.match_group(j, end, '(', ')');
        let has_self = self.toks[j + 1..params_close.saturating_sub(1)]
            .iter()
            .any(|t| t.is_kw("self"));
        // Body `{` or trait-declaration `;`.
        let mut b = params_close;
        while b < end && !self.toks[b].is_punct('{') && !self.toks[b].is_punct(';') {
            b += 1;
        }
        if b >= end || self.toks[b].is_punct(';') {
            return b.saturating_add(1).min(end); // signature only
        }
        let close = self.match_group(b, end, '{', '}');
        let header_line = self.header_line(i, attrs);
        let end_line = self.toks[close.saturating_sub(1).min(self.toks.len() - 1)].line;
        let test = in_test || self.attrs_mark_test(attrs);
        if test && !in_test {
            self.out.test_regions.push((header_line, end_line));
        }
        self.out.fns.push(FnItem {
            module: module.to_vec(),
            impl_type: impl_type.map(String::from),
            name: name_text,
            line: name_line,
            col: name_col,
            header_line,
            span: (header_line, end_line),
            body: (b, close),
            has_self,
            in_test: test,
        });
        close
    }

    /// Skips a `struct`/`enum` declaration (unit, tuple, or braced).
    fn skip_type(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        while j < end && !self.toks[j].is_punct('{') && !self.toks[j].is_punct(';') {
            if self.toks[j].is_punct('(') {
                j = self.match_group(j, end, '(', ')');
                continue;
            }
            j += 1;
        }
        if j < end && self.toks[j].is_punct('{') {
            self.match_group(j, end, '{', '}')
        } else {
            (j + 1).min(end)
        }
    }

    /// `use a::b::{c, d as e, f::g};` → aliases for every leaf.
    fn parse_use(&mut self, i: usize, end: usize) -> usize {
        // Find the terminating `;`, balancing braces.
        let mut close = i + 1;
        let mut depth = 0i32;
        while close < end {
            let t = &self.toks[close];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                break;
            }
            close += 1;
        }
        let mut prefix = Vec::new();
        self.parse_use_tree(i + 1, close, &mut prefix);
        (close + 1).min(end)
    }

    /// Parses one use-tree level in `[i, end)` with the accumulated
    /// `prefix`; recurses into `{…}` groups.
    fn parse_use_tree(&mut self, i: usize, end: usize, prefix: &mut Vec<String>) {
        let depth0 = prefix.len();
        let mut i = i;
        let mut segs: Vec<String> = Vec::new();
        let flush = |segs: &mut Vec<String>,
                     prefix: &[String],
                     out: &mut FileItems,
                     alias: Option<&str>| {
            if segs.is_empty() {
                return;
            }
            let mut full: Vec<String> = prefix.to_vec();
            full.extend(segs.iter().cloned());
            let name = alias.unwrap_or_else(|| full.last().map(String::as_str).unwrap_or(""));
            if !name.is_empty() && name != "*" {
                out.uses.push((name.to_string(), full));
            }
            segs.clear();
        };
        while i < end {
            let t = &self.toks[i];
            if t.kind == TokKind::Ident && !t.is_kw("as") {
                segs.push(t.text.clone());
                i += 1;
            } else if t.is_punct(':') {
                i += 1;
            } else if t.is_kw("as") {
                // `path as alias`.
                if let Some(alias) = self.toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    let alias = alias.text.clone();
                    flush(&mut segs, prefix, self.out, Some(&alias));
                    i += 2;
                } else {
                    i += 1;
                }
            } else if t.is_punct('{') {
                let close = self.match_group(i, end, '{', '}');
                prefix.append(&mut segs);
                self.parse_use_tree(i + 1, close - 1, prefix);
                prefix.truncate(depth0);
                i = close;
            } else if t.is_punct(',') {
                flush(&mut segs, prefix, self.out, None);
                i += 1;
            } else if t.is_punct('*') {
                segs.clear();
                i += 1;
            } else {
                i += 1;
            }
        }
        flush(&mut segs, prefix, self.out, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        FileItems::parse("crates/core/src/scenario.rs", src)
    }

    #[test]
    fn fns_get_paths_spans_and_self() {
        let f = parse(
            "pub fn free() -> u64 { 1 }\n\
             pub struct S;\n\
             impl S {\n\
                 pub fn method(&self) -> u64 { free() }\n\
             }\n\
             mod inner {\n\
                 fn nested() {}\n\
             }\n",
        );
        let names: Vec<String> = f.fns.iter().map(FnItem::display).collect();
        assert_eq!(
            names,
            vec![
                "arvis_core::scenario::free",
                "arvis_core::scenario::S::method",
                "arvis_core::scenario::inner::nested",
            ]
        );
        assert!(!f.fns[0].has_self);
        assert!(f.fns[1].has_self);
        assert_eq!(f.fns[0].span, (1, 1));
        assert_eq!(f.fns[1].span.0, 4);
    }

    #[test]
    fn trait_impl_for_binds_the_type_not_the_trait() {
        let f = parse("impl fmt::Debug for Widget { fn fmt(&self) -> R { helper() } }");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Widget"));
    }

    #[test]
    fn use_trees_expand_aliases() {
        let f = parse(
            "use std::time::Instant;\n\
             use std::collections::{HashMap, hash_map::RandomState as RS};\n\
             use crate::uplink::*;\n",
        );
        assert_eq!(
            f.expand_use("Instant").unwrap(),
            &["std", "time", "Instant"]
        );
        assert_eq!(
            f.expand_use("HashMap").unwrap(),
            &["std", "collections", "HashMap"]
        );
        assert_eq!(
            f.expand_use("RS").unwrap(),
            &["std", "collections", "hash_map", "RandomState"]
        );
        assert!(f.expand_use("RandomState").is_none(), "renamed away");
    }

    #[test]
    fn cfg_evaluator_handles_nesting() {
        let toks = |s: &str| lexer::lex(s).toks;
        assert_eq!(eval_cfg(&toks("test")), CfgTruth::False);
        assert_eq!(
            eval_cfg(&toks("all(test, feature = \"x\")")),
            CfgTruth::False
        );
        assert_eq!(
            eval_cfg(&toks("any(test, feature = \"x\")")),
            CfgTruth::Unknown
        );
        assert_eq!(eval_cfg(&toks("not(test)")), CfgTruth::True);
        assert_eq!(eval_cfg(&toks("not(any(test, foo))")), CfgTruth::Unknown);
        assert_eq!(eval_cfg(&toks("all(not(test), unix)")), CfgTruth::Unknown);
        assert_eq!(eval_cfg(&toks("any(all(test, unix))")), CfgTruth::False);
        assert_eq!(eval_cfg(&toks("feature = \"parallel\"")), CfgTruth::Unknown);
    }

    #[test]
    fn test_regions_from_cfg_scopes() {
        let f = parse(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() {}\n\
             }\n\
             #[cfg(all(test, feature = \"slow\"))]\n\
             fn gated() {}\n\
             #[cfg(any(test, feature = \"x\"))]\n\
             fn sometimes_live() {}\n\
             #[cfg(not(test))]\n\
             fn never_test() {}\n",
        );
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3) && f.in_test_region(5));
        assert!(f.in_test_region(8), "all(test, …) is test-only");
        assert!(!f.in_test_region(10), "any(test, …) may be compiled live");
        assert!(!f.in_test_region(12));
    }

    #[test]
    fn raw_idents_do_not_open_items() {
        // `r#fn` / `r#mod` are names, not item keywords; `r#type::f` in a
        // path parses as part of the enclosing fn's body.
        let f = parse("fn caller() -> u64 { r#type::f() + r#fn }\npub mod r#type { pub fn f() -> u64 { 0 } }\n");
        let names: Vec<String> = f.fns.iter().map(|x| x.name.clone()).collect();
        assert_eq!(names, vec!["caller", "f"]);
        assert_eq!(f.fns[1].module.last().map(String::as_str), Some("type"));
    }

    #[test]
    fn module_paths_by_layout() {
        assert_eq!(
            module_path_of("crates/core/src/scenario.rs"),
            vec!["arvis_core", "scenario"]
        );
        assert_eq!(module_path_of("crates/core/src/lib.rs"), vec!["arvis_core"]);
        assert_eq!(module_path_of("src/lib.rs"), vec!["arvis"]);
        assert_eq!(
            module_path_of("tests/fault_plane.rs"),
            vec!["tests", "fault_plane"]
        );
        assert_eq!(
            module_path_of("crates/bench/src/bin/experiments.rs"),
            vec!["arvis_bench", "experiments"]
        );
    }
}
