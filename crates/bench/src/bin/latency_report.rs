//! Per-request critical-path latency attribution for one scenario run.
//!
//! Parses a scenario file, executes it deterministically at the given
//! seed, reconstructs the causal span of every committed request from the
//! exported trace (see DESIGN.md §14), and writes the canonical
//! `latency_report.json` — end-to-end quantiles, the per-phase
//! decomposition, and the exact phase breakdown of the p99 request.
//!
//! Usage:
//!
//! ```text
//! latency-report <scenario.toml> [seed] [out_dir]
//! ```
//!
//! The tool is its own acceptance harness. It exits non-zero unless:
//!
//! * every committed request was attributed to a full causal chain,
//! * the p99 request's phase breakdown sums to within 1% of the
//!   end-to-end p99 (by construction it sums *exactly*; the 1% tolerance
//!   guards the claim, not the implementation),
//! * a second run of the same (scenario, seed) yields byte-identical
//!   report bytes — determinism checked where it is consumed.

use std::path::PathBuf;
use std::process::ExitCode;

use qsel_bench::{host, Table};
use qsel_obs::metrics::percentile_sorted;
use qsel_obs::replay::parse_jsonl;
use qsel_obs::span::{SpanReport, PHASES};
use qsel_scenario::{parse, run_scenario};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: latency-report <scenario.toml> [seed] [out_dir]");
        return ExitCode::FAILURE;
    };
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be an integer"))
        .unwrap_or(1);
    let out_dir = PathBuf::from(args.next().unwrap_or_else(|| ".".to_string()));

    let text = match host::read_text(path.as_ref()) {
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
    let records = parse_jsonl(&artifacts.trace_jsonl).expect("exported trace reparses");
    let spans = SpanReport::build(&records);

    let lat = spans.latencies_sorted();
    let mut table = Table::new(vec!["phase", "total µs", "p50", "p90", "p99", "max"]);
    for (i, name) in PHASES.iter().enumerate() {
        let sorted = spans.phase_sorted(i);
        table.row(vec![
            (*name).to_string(),
            sorted.iter().sum::<u64>().to_string(),
            percentile_sorted(&sorted, 50).to_string(),
            percentile_sorted(&sorted, 90).to_string(),
            percentile_sorted(&sorted, 99).to_string(),
            sorted.last().copied().unwrap_or(0).to_string(),
        ]);
    }
    table.print(&format!(
        "latency attribution — {} seed {seed} ({} span(s), {} unattributed)",
        scenario.name,
        spans.spans.len(),
        spans.unattributed.len()
    ));
    println!(
        "end-to-end: p50 {}µs  p90 {}µs  p99 {}µs  max {}µs",
        percentile_sorted(&lat, 50),
        percentile_sorted(&lat, 90),
        percentile_sorted(&lat, 99),
        lat.last().copied().unwrap_or(0),
    );

    let out_path = out_dir.join("latency_report.json");
    host::write_result(&out_path, &artifacts.latency_report);
    println!("report → {}", out_path.display());

    let mut ok = true;
    if !spans.unattributed.is_empty() {
        eprintln!(
            "FAIL: {} committed request(s) lack a full causal chain: {:?}",
            spans.unattributed.len(),
            spans.unattributed
        );
        ok = false;
    }
    if lat.is_empty() {
        eprintln!("FAIL: no spans attributed — nothing to report on");
        ok = false;
    } else {
        let e2e_p99 = percentile_sorted(&lat, 99);
        let p99 = spans.p99_span().expect("non-empty report has a p99 span");
        let sum = p99.phase_sum();
        // Integer arithmetic for the 1% band: |sum - p99| * 100 <= p99.
        if sum.abs_diff(e2e_p99) * 100 > e2e_p99 {
            eprintln!(
                "FAIL: p99 attribution sums to {sum}µs but end-to-end p99 is \
                 {e2e_p99}µs (>1% apart)"
            );
            ok = false;
        } else {
            println!(
                "p99 attribution: client {} op {} — phases sum to {sum}µs \
                 vs end-to-end p99 {e2e_p99}µs ✓",
                p99.client, p99.op
            );
        }
    }

    // Determinism, checked where it is consumed: the same (scenario, seed)
    // must reproduce the report byte for byte.
    let again = run_scenario(&scenario, seed).expect("second run");
    if again.latency_report != artifacts.latency_report {
        eprintln!("FAIL: latency report diverged between two identical runs");
        ok = false;
    } else {
        println!("determinism: second run byte-identical ✓");
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
