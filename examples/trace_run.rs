//! Traced chaos run with offline bound checking (experiment E-TRACE).
//!
//! Executes one seeded chaos scenario with the full `qsel-obs` pipeline
//! enabled: every layer (simulator, replicas, failure detectors,
//! selection modules, clients) emits structured events into one shared
//! sink stamped with simulated time. The run then
//!
//! 1. writes the trace to `trace-<seed>.jsonl` and the derived metrics
//!    to `metrics-<seed>.json`,
//! 2. prints the metrics registry (commit latency, view-change duration,
//!    quorums per epoch, retry back-off) as text, and
//! 3. replays the exported trace through the analyzer, checking the
//!    Theorem 3 `f(f+1)` / Theorem 9 `3f+1` per-epoch quorum bounds
//!    (counted after the last heal, when the theorems' accurate-detector
//!    premise holds), per-slot agreement across replicas, and that no
//!    message or timer was delivered to a crashed incarnation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example trace_run              # seed 1, cwd output
//! cargo run --release --example trace_run 42           # a single seed
//! cargo run --release --example trace_run 42 out/dir   # choose output dir
//! ```
//!
//! Exits non-zero if the run fails to return to liveness, the exported
//! trace does not reparse, or the analyzer reports any violation — so CI
//! can gate on the paper's bounds holding over a real execution.

use std::path::PathBuf;

use qsel_repro::chaos::{plan_for, run_chaos_with_sink, F, N};
use qsel_repro::qsel_obs::metrics::standard_metrics;
use qsel_repro::qsel_obs::replay::{analyze, parse_jsonl};
use qsel_repro::qsel_obs::{ReplayConfig, TraceSink};
use qsel_repro::qsel_types::ClusterConfig;

#[expect(
    clippy::disallowed_methods,
    reason = "writes the trace and metrics artifacts"
)]
fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be an integer"))
        .unwrap_or(1);
    let out_dir = PathBuf::from(args.next().unwrap_or_else(|| ".".to_string()));
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

    let sink = TraceSink::unbounded();
    let run = run_chaos_with_sink(seed, sink.clone());
    println!(
        "seed {seed}: committed {}/{} ops, {} trace records",
        run.committed,
        run.expected,
        sink.len()
    );
    if !run.live() {
        eprintln!(
            "seed {seed} failed to return to liveness; plan:\n{:#?}",
            plan_for(seed, N)
        );
        std::process::exit(1);
    }

    // Export the trace and reparse it from the exported bytes: the
    // analyzer deliberately runs on what an offline consumer would read,
    // not on the in-memory records.
    let trace_path = out_dir.join(format!("trace-{seed}.jsonl"));
    let text = sink.export_jsonl();
    std::fs::write(&trace_path, &text).expect("cannot write trace");
    let records = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("exported trace does not reparse: {e}");
            std::process::exit(1);
        }
    };
    println!("trace   → {}", trace_path.display());

    let metrics = standard_metrics(&records);
    let metrics_path = out_dir.join(format!("metrics-{seed}.json"));
    std::fs::write(&metrics_path, metrics.render_json()).expect("cannot write metrics");
    println!("metrics → {}", metrics_path.display());
    println!();
    print!("{}", metrics.render_text());
    println!();

    // Quorum bounds are only claimed once the failure detector can be
    // accurate, i.e. after the last scripted fault healed.
    let cfg = ReplayConfig {
        f: ClusterConfig::new(N, F).unwrap().f(),
        stable_from_micros: plan_for(seed, N).last_fault_time().unwrap().as_micros(),
    };
    let report = analyze(&records, &cfg);
    println!("{report}");
    if !report.ok() {
        std::process::exit(1);
    }
}
