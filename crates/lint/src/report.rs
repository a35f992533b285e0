//! Finding aggregation and output: `file:line:col rule message` text and a
//! canonical JSON report via `arvis_core::json` (the same deterministic
//! printer scenario files use, so reports are byte-stable inputs for
//! tooling and CI diffs).

use arvis_core::json::{Emit, Emitter, JsonError};

use crate::rules::{Finding, RULES};

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the lint should fail (any finding).
    pub fn has_findings(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Findings for one rule.
    pub fn by_rule(&self, rule: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// The human-readable rendering: one `file:line:col rule message` line
    /// per finding plus a trailing summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "arvis-lint: {} finding{} in {} file{} scanned\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
        ));
        out
    }
}

/// The canonical JSON report, written by the same [`Emitter`] as scenario
/// files ([`arvis_core::json::to_string`]). Keys are emitted in a fixed
/// order and the printer is deterministic, so two runs over the same tree
/// produce byte-identical reports. Schema 2 adds the machine-readable taint
/// chain (`"chain"`) to every finding — empty for per-file findings, the
/// function path down to the ambient source for interprocedural ones.
impl Emit for Report {
    fn emit(&self, out: &mut Emitter, _name: &str) -> Result<(), JsonError> {
        let rules: Vec<String> = RULES.iter().map(|(name, _)| name.to_string()).collect();
        out.object(|out| {
            out.member("schema", &2u64)?;
            out.member("tool", "arvis-lint")?;
            out.member("files_scanned", &self.files_scanned)?;
            out.member("rules", &rules)?;
            out.member("findings", &self.findings)
        })
    }
}

impl Emit for Finding {
    fn emit(&self, out: &mut Emitter, _name: &str) -> Result<(), JsonError> {
        out.object(|out| {
            out.member("file", &self.file)?;
            out.member("line", &u64::from(self.line))?;
            out.member("col", &u64::from(self.col))?;
            out.member("rule", self.rule)?;
            out.member("message", &self.message)?;
            out.member("chain", &self.chain)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            rule: "no-ambient-time",
            message: "ambient clock".into(),
            chain: vec!["a::f".into(), "`Instant` (crates/x/src/lib.rs:3)".into()],
        }
    }

    #[test]
    fn text_rendering_is_grep_friendly() {
        let r = Report {
            findings: vec![finding()],
            files_scanned: 2,
        };
        let text = r.render_text();
        assert!(text.starts_with("crates/x/src/lib.rs:3:9 no-ambient-time ambient clock\n"));
        assert!(text.contains("1 finding in 2 files"));
    }

    #[test]
    fn json_report_is_byte_deterministic_and_parses() {
        let r = Report {
            findings: vec![finding()],
            files_scanned: 2,
        };
        let a = arvis_core::json::to_string(&r).unwrap();
        let b = arvis_core::json::to_string(&r).unwrap();
        assert_eq!(a, b);
        let back = arvis_core::json::parse(&a).expect("report parses");
        let mut obj = back.as_obj().expect("object");
        assert_eq!(obj.req("schema").unwrap().as_u64().unwrap(), 2);
        assert_eq!(obj.req("files_scanned").unwrap().as_u64().unwrap(), 2);
        let found = obj.req("findings").unwrap();
        let arr = found.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        let mut f0 = arr[0].as_obj().expect("finding object");
        let chain = f0.req("chain").unwrap().as_array().unwrap();
        assert_eq!(chain.len(), 2, "schema 2 carries the taint chain");
    }
}
