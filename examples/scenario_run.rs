//! Declarative scenario runner (the CI league cell).
//!
//! Parses a scenario file, executes it deterministically at the given
//! seed, replays the exported trace through the `qsel-obs` analyzer, and
//! writes the machine-readable artifacts CI archives per matrix cell:
//!
//! * `verdict.json` — pass/fail per invariant plus a metrics summary,
//! * `trace.jsonl` — the full trace the analyzer actually read,
//! * `metrics.json` — the standard derived metrics registry,
//! * `latency_report.json` — per-request critical-path latency
//!   attribution (see DESIGN.md §14).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example scenario_run scenarios/calm-baseline.toml
//! cargo run --release --example scenario_run scenarios/calm-baseline.toml 42
//! cargo run --release --example scenario_run scenarios/calm-baseline.toml 42 out/dir
//! ```
//!
//! Exits non-zero if the scenario file does not parse or validate, or any
//! verdict check fails — so a CI matrix cell is red exactly when its
//! `verdict.json` says `"pass": false`.

use std::path::PathBuf;
use std::process::ExitCode;

use qsel_repro::qsel_scenario::{parse, run_scenario};

#[expect(
    clippy::disallowed_methods,
    reason = "the league cell reads its scenario file and writes its four artifacts"
)]
fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: scenario_run <scenario.toml> [seed] [out_dir]");
        return ExitCode::FAILURE;
    };
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be an integer"))
        .unwrap_or(1);
    let out_dir = PathBuf::from(args.next().unwrap_or_else(|| ".".to_string()));

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = match parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let artifacts = match run_scenario(&scenario, seed) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    std::fs::write(out_dir.join("verdict.json"), artifacts.verdict.to_json())
        .expect("cannot write verdict");
    std::fs::write(out_dir.join("trace.jsonl"), &artifacts.trace_jsonl)
        .expect("cannot write trace");
    std::fs::write(out_dir.join("metrics.json"), &artifacts.metrics_json)
        .expect("cannot write metrics");
    std::fs::write(
        out_dir.join("latency_report.json"),
        &artifacts.latency_report,
    )
    .expect("cannot write latency report");

    print!("{}", artifacts.verdict);
    println!();
    print!("{}", artifacts.metrics_text);
    println!("artifacts → {}", out_dir.display());

    if artifacts.verdict.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
