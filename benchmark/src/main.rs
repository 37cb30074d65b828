//! The repo benchmark: one command runs one workload at one seed, checks
//! that its outputs are correct, and prints every metric by name with its
//! unit — end to end with `--trace 0`, layer by layer with `--trace 1`.
//! See `benchmark/README.md`.

mod alloc;
mod cells;
mod e2e;
mod layers;
mod probes;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use cells::Workload;
use stats::{quartiles, END_TO_END, PER_LAYER};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Timed repetitions a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: qsel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--root <benchmark dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut root = PathBuf::from("benchmark");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--root" => root = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        root,
    })
}

/// Renders `metrics` — which must be exactly the `declared` ones, in
/// order — as the report's table and as the result line: one JSON object
/// with exactly `correct`, `attempted`, `failed` and `metrics`.
fn render(
    declared: &[(&str, &str)],
    metrics: &[(&str, f64)],
    attempted: u64,
    failed: u64,
) -> Result<(String, String), String> {
    if metrics.len() != declared.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            metrics.len(),
            declared.len()
        ));
    }
    let mut table = String::new();
    let mut line = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, ((name, value), (declared_name, unit))) in metrics.iter().zip(declared).enumerate() {
        if name != declared_name || !value.is_finite() {
            return Err(format!(
                "metric {name} = {value} where {declared_name} is declared"
            ));
        }
        let _ = writeln!(table, "  {name:<44} {value:>18.4} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    Ok((table, line))
}

const INTERACTIONS: &str = "\
how the layers interact:
  - nothing else contends for the processor, so a faster layer saves at most its *_share_pct of a repetition
  - batching lowers xpaxos.msgs_per_commit.* and types.signs_per_commit and adds obs.phase_p99_sim_us.batch_wait
  - shorter failure-detector timeouts cut max_commit_gap_sim_us and raise detector.false_suspicions and xpaxos.view_changes
  - lower layers (types, mmr, graph, core, detector) are attributed as traced count x probe unit cost";

fn run(args: &Args) -> Result<String, String> {
    let dir = args.root.join("workloads");
    let sizing = Workload::frozen_sizing(&args.workload);
    let w = Workload::load(&args.workload, args.seed, &dir, sizing)?;
    let mut report = format!(
        "workload {} seed {}: {} cell(s) per repetition, simulation seeds {}..={}\n",
        w.name,
        args.seed,
        w.cells.len(),
        w.cells[0].seed,
        w.cells[w.cells.len() - 1].seed
    );
    if args.trace {
        let layers = layers::measure(&w, args.seed)?;
        let out = args.root.join("out");
        let path = out.join(format!("{}.spans.jsonl", w.name));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, &layers.spans_jsonl))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(
            report,
            "per-layer metrics (traced run; spans in {}):",
            path.display()
        );
        let (table, line) = render(&PER_LAYER, &layers.metrics, layers.attempted, layers.failed)?;
        let _ = writeln!(report, "{table}{INTERACTIONS}\n{line}");
    } else {
        let r = e2e::measure(&w, args.seconds, MIN_REPS, true)?;
        let (q1, q3) = quartiles(&r.rep_wall_s);
        let _ = writeln!(
            report,
            "{} timed repetitions after one warm-up; repetition wall s: min {:.3} q1 {q1:.3} q3 {q3:.3} max {:.3}",
            r.reps,
            r.rep_wall_s[0],
            r.rep_wall_s[r.reps - 1]
        );
        let _ = writeln!(
            report,
            "{} latency samples, {} beyond the p99; open-loop requests are timed from when they were due, and the \
             generator of a discrete-event simulation is never late (lateness 0)",
            r.latency_samples, r.samples_beyond_p99
        );
        let _ = writeln!(
            report,
            "view changes {} (most at one replica); quorums per epoch at most {} (Theorem 3 bound C(f+2,2) = {})",
            r.view_changes, r.max_quorums_per_epoch, r.quorum_bound
        );
        let (table, line) = render(&END_TO_END, &r.metrics, r.attempted, r.failed)?;
        let _ = writeln!(report, "end-to-end metrics:\n{table}{line}");
    }
    Ok(report)
}

fn main() -> ExitCode {
    // Nothing is printed until every check has passed: a failed run shows
    // no metrics.
    match parse_args().and_then(|args| run(&args)) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::cells::{Sizing, WORKLOADS};

    const SMALL: Sizing = Sizing {
        seeds_per_file: 1,
        ops_divisor: 20,
    };

    fn load(name: &str) -> Workload {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
        Workload::load(name, 1, &dir, SMALL).expect("frozen inputs load")
    }

    #[test]
    fn every_workload_runs_end_to_end_at_a_twentieth() {
        for name in WORKLOADS {
            let r =
                e2e::measure(&load(name), 0.0, 1, false).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(r.reps, 1);
            assert_eq!(r.failed, 0, "{name}");
            render(&END_TO_END, &r.metrics, r.attempted, r.failed).expect("declared metrics");
            for (metric, v) in &r.metrics {
                assert!(v.is_finite() && *v > 0.0, "{name}: {metric} = {v}");
            }
        }
    }

    #[test]
    fn every_workload_traces_at_a_twentieth() {
        for name in WORKLOADS {
            let l = layers::measure(&load(name), 1).unwrap_or_else(|e| panic!("{name}: {e}"));
            render(&PER_LAYER, &l.metrics, l.attempted, l.failed).expect("declared metrics");
            assert!(l.spans_jsonl.lines().count() > 10, "{name}");
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics and workloads this
    /// binary reports, with the same units.
    #[test]
    fn manifest_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = |name: &str, unit: &str| {
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(declared(name, unit), "end_to_end {name} [{unit}]");
        }
        for (name, unit) in PER_LAYER {
            assert!(declared(name, unit), "per_layer {name} [{unit}]");
        }
        for w in WORKLOADS {
            assert!(
                manifest.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "workload {w}"
            );
        }
        let metric_lines = manifest.matches("\"unit\":").count();
        assert_eq!(metric_lines, END_TO_END.len() + PER_LAYER.len());
    }
}
