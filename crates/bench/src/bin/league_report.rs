//! Scenario-league verdict aggregator.
//!
//! Walks a directory tree for `verdict.json` files (one per CI matrix
//! cell, written by the `scenario_run` example), folds them into a single
//! `league_report.json`, and prints a GitHub-flavoured markdown pass/fail
//! table for the job summary.
//!
//! Usage:
//!
//! ```text
//! league-report <dir> [--json PATH] [--md PATH]
//! ```
//!
//! Exits non-zero if any cell failed, any verdict does not parse, or no
//! verdicts were found at all (an empty league means the matrix broke —
//! that must not read as green).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qsel_bench::{host, Table};
use qsel_obs::Verdict;

fn collect_verdicts(dir: &Path, out: &mut Vec<(PathBuf, Verdict)>) -> Result<(), String> {
    let paths = host::sorted_entries(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for path in paths {
        if path.is_dir() {
            collect_verdicts(&path, out)?;
        } else if path.file_name().is_some_and(|n| n == "verdict.json") {
            let text = host::read_text(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let verdict =
                Verdict::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push((path, verdict));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(root) = args.next() else {
        eprintln!("usage: league-report <dir> [--json PATH] [--md PATH]");
        return ExitCode::FAILURE;
    };
    let mut json_path: Option<PathBuf> = None;
    let mut md_path: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        let value = args.next().map(PathBuf::from);
        match (flag.as_str(), value) {
            ("--json", Some(p)) => json_path = Some(p),
            ("--md", Some(p)) => md_path = Some(p),
            (other, _) => {
                eprintln!("unknown or valueless flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut cells: Vec<(PathBuf, Verdict)> = Vec::new();
    if let Err(e) = collect_verdicts(Path::new(&root), &mut cells) {
        eprintln!("league-report: {e}");
        return ExitCode::FAILURE;
    }
    if cells.is_empty() {
        eprintln!("league-report: no verdict.json found under {root}");
        return ExitCode::FAILURE;
    }
    cells.sort_by_key(|(_, a)| (a.scenario.clone(), a.seed));

    let passed = cells.iter().filter(|(_, v)| v.pass()).count();
    let failed = cells.len() - passed;

    // league_report.json: the per-cell verdicts verbatim plus the totals,
    // so downstream tooling needs no second artifact fetch.
    let rendered: Vec<String> = cells
        .iter()
        .map(|(_, v)| {
            v.to_json()
                .trim_end()
                .lines()
                .map(|l| format!("    {l}"))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    let json = format!(
        "{{\n  \"cells\": {},\n  \"passed\": {passed},\n  \"failed\": {failed},\n  \
         \"verdicts\": [\n{}\n  ]\n}}\n",
        cells.len(),
        rendered.join(",\n")
    );

    let mut table = Table::new(vec![
        "scenario",
        "seed",
        "result",
        "p99 commit",
        "failed checks",
    ]);
    for (_, v) in &cells {
        let failed_checks: Vec<&str> = v
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.name.as_str())
            .collect();
        // Older verdicts (pre latency attribution) simply lack the metric.
        let p99 = v
            .metrics
            .get("commit_latency_p99_us")
            .map_or_else(|| "—".to_string(), |us| format!("{us} µs"));
        table.row(vec![
            v.scenario.clone(),
            v.seed.to_string(),
            if v.pass() { "✅ pass" } else { "❌ FAIL" }.to_string(),
            p99,
            if failed_checks.is_empty() {
                "—".to_string()
            } else {
                failed_checks.join(", ")
            },
        ]);
    }
    let md = format!(
        "## Scenario league\n\n{}\n{} of {} cells passed.\n",
        table.render(),
        passed,
        cells.len()
    );

    if let Some(p) = &json_path {
        host::write_result(p, &json);
        println!("report → {}", p.display());
    }
    if let Some(p) = &md_path {
        host::write_result(p, &md);
        println!("summary → {}", p.display());
    }
    print!("{md}");

    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
