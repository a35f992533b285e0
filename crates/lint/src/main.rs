//! The `arvis-lint` binary: walks the workspace, prints findings as
//! `file:line:col rule message`, optionally writes the canonical JSON
//! report, and exits nonzero on any finding.
//!
//! ```text
//! arvis-lint [--root <dir>] [--json <path|->] [--list-rules] [--explain <rule>]
//! ```

use std::process::ExitCode;

use arvis_lint::{lint_workspace, rules, LintConfig, RULES};

fn main() -> ExitCode {
    let mut config = LintConfig::workspace();
    let mut json_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => config.root = dir.into(),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(path) => json_out = Some(path),
                None => {
                    eprintln!("--json needs a path (or `-` for stdout)");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for (name, desc) in RULES {
                    println!("{name}: {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => match args.next() {
                Some(rule) => match rules::explain(&rule) {
                    Some(text) => {
                        let desc = RULES
                            .iter()
                            .find(|(n, _)| *n == rule)
                            .map(|(_, d)| *d)
                            .unwrap_or("");
                        println!("{rule}: {desc}\n");
                        println!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!("unknown rule {rule:?} (try --list-rules)");
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("--explain needs a rule name (try --list-rules)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "arvis-lint [--root <dir>] [--json <path|->] [--list-rules] [--explain <rule>]"
                );
                println!("Statically audits the workspace's determinism contract.");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let report = match lint_workspace(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("arvis-lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_text());
    if let Some(path) = json_out {
        let text = match arvis_core::json::to_string(&report) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("arvis-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if path == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("arvis-lint: failed to write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if report.has_findings() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
