//! `qsel-lint` binary: lints the workspace, prints the human report,
//! writes `lint_report.json`, and exits non-zero on any unsuppressed
//! finding.
//!
//! ```text
//! qsel-lint [ROOT] [--json PATH]
//! ```
//!
//! `ROOT` defaults to the current directory; the JSON report path
//! defaults to `lint_report.json` under `ROOT`.

use std::path::PathBuf;
use std::process::ExitCode;

use qsel_lint::{files, run, LintConfig};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("qsel-lint: --json requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: qsel-lint [ROOT] [--json PATH]");
                return ExitCode::SUCCESS;
            }
            other => root = PathBuf::from(other),
        }
    }
    let json_path = json_path.unwrap_or_else(|| root.join("lint_report.json"));

    let report = match run(&root, &LintConfig::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qsel-lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.human());
    if let Err(e) = files::write(&json_path, &report.to_json()) {
        eprintln!("qsel-lint: writing {}: {e}", json_path.display());
        return ExitCode::from(2);
    }
    if report.unsuppressed_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
