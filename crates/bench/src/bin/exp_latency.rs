//! Experiment E-LAT — commit-latency attribution under batching, with a
//! CI regression gate.
//!
//! Runs a fixed batched scenario (n=5 f=1, four closed-loop clients ×
//! 25 ops, batches of up to 8 with a 300µs accumulation window, pipeline
//! depth 2) at three seeds, reconstructs every committed request's causal
//! span, and aggregates end-to-end and per-phase latency quantiles across
//! the pooled spans. The simulation is deterministic, so the numbers are
//! a pure function of the code — any drift is a code change, not noise.
//!
//! Writes `BENCH_latency.json` (to the first CLI argument, default the
//! current directory) and compares the observed end-to-end p99 against
//! the committed baseline (`--baseline PATH`, default the repository's
//! checked-in `BENCH_latency.json`): a regression of more than 10% fails
//! the run. A missing baseline file skips the gate with a notice — that
//! is the bootstrap path, see EXPERIMENTS.md § E-LAT for the refresh
//! procedure.
//!
//! Usage:
//!
//! ```text
//! exp-latency <out_dir> [--baseline PATH]
//! ```

use std::path::PathBuf;

use qsel_bench::{host, Table};
use qsel_obs::metrics::percentile_sorted;
use qsel_obs::replay::parse_jsonl;
use qsel_obs::span::{SpanReport, PHASES};
use qsel_scenario::{run_scenario, BatchSpec, Cluster, RunSpec, Scenario, Workload};

const SEEDS: [u64; 3] = [1, 2, 3];
const CLIENTS: u32 = 4;
const OPS_PER_CLIENT: u64 = 25;
/// >10% p99 regression against the committed baseline fails CI.
const GATE_NUM: u64 = 11;
const GATE_DEN: u64 = 10;

/// The measured workload: batching on (so `batch_wait` is a real phase),
/// shallow pipeline, closed loop.
fn scenario() -> Scenario {
    Scenario {
        name: "exp-latency".to_string(),
        cluster: Cluster {
            n: 5,
            f: 1,
            ..Cluster::default()
        },
        workload: Workload {
            clients: CLIENTS,
            ops_per_client: OPS_PER_CLIENT,
            tx_cost_us: 2,
            ..Workload::default()
        },
        batch: BatchSpec {
            max_size: 8,
            max_delay_us: 300,
            pipeline_depth: 2,
        },
        run: RunSpec {
            settle_us: 10_000_000,
            min_commit_permille: 1000,
            stable_from_us: None,
        },
        ..Scenario::default()
    }
}

/// Pulls `"end_to_end_p99_us": <digits>` out of a previously written
/// `BENCH_latency.json` without a full parser.
fn baseline_p99(text: &str) -> Option<u64> {
    let key = "\"end_to_end_p99_us\":";
    let at = text.find(key)? + key.len();
    let digits: String = text[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out_dir = PathBuf::from(args.next().unwrap_or_else(|| ".".to_string()));
    let mut baseline_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_latency.json");
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--baseline", Some(p)) => baseline_path = PathBuf::from(p),
            (other, _) => {
                eprintln!("unknown or valueless flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let sc = scenario();
    let mut lat: Vec<u64> = Vec::new();
    let mut phase_samples: [Vec<u64>; 6] = Default::default();
    let mut straggler: Vec<u64> = Vec::new();
    let mut unattributed = 0usize;
    for seed in SEEDS {
        let artifacts = run_scenario(&sc, seed).expect("scenario runs");
        assert!(
            artifacts.verdict.pass(),
            "E-LAT workload must pass its verdict at seed {seed}"
        );
        let records = parse_jsonl(&artifacts.trace_jsonl).expect("trace reparses");
        let spans = SpanReport::build(&records);
        unattributed += spans.unattributed.len();
        for s in &spans.spans {
            lat.push(s.latency_us);
            for (i, d) in s.phases.iter().enumerate() {
                phase_samples[i].push(*d);
            }
            straggler.push(s.straggler_gap_us);
        }
    }
    assert_eq!(unattributed, 0, "every committed request must attribute");
    lat.sort_unstable();
    for p in &mut phase_samples {
        p.sort_unstable();
    }
    straggler.sort_unstable();

    let p50 = percentile_sorted(&lat, 50);
    let p90 = percentile_sorted(&lat, 90);
    let p99 = percentile_sorted(&lat, 99);
    let straggler_p99 = percentile_sorted(&straggler, 99);

    let mut table = Table::new(vec!["phase", "p50 µs", "p90 µs", "p99 µs"]);
    for (i, name) in PHASES.iter().enumerate() {
        table.row(vec![
            (*name).to_string(),
            percentile_sorted(&phase_samples[i], 50).to_string(),
            percentile_sorted(&phase_samples[i], 90).to_string(),
            percentile_sorted(&phase_samples[i], 99).to_string(),
        ]);
    }
    table.print("E-LAT — commit latency attribution (pooled over seeds 1..3)");
    println!(
        "end-to-end: p50 {p50}µs  p90 {p90}µs  p99 {p99}µs  ({} spans)",
        lat.len()
    );

    let baseline = host::read_text(&baseline_path)
        .ok()
        .as_deref()
        .and_then(baseline_p99);
    let pass = match baseline {
        Some(b) => {
            println!(
                "baseline p99 {b}µs ({}); gate: observed <= {}.{}x",
                baseline_path.display(),
                GATE_NUM / GATE_DEN,
                GATE_NUM % GATE_DEN
            );
            p99 * GATE_DEN <= b * GATE_NUM
        }
        None => {
            println!(
                "no baseline at {} — gate skipped (bootstrap run)",
                baseline_path.display()
            );
            true
        }
    };

    let mut json = String::from("{\n  \"experiment\": \"E-LAT\",\n");
    json.push_str(&format!(
        "  \"workload\": \"n=5 f=1 clients={CLIENTS} ops={OPS_PER_CLIENT} \
         batch=8 delay_us=300 depth=2 seeds=1..3\",\n"
    ));
    json.push_str(&format!("  \"spans\": {},\n", lat.len()));
    json.push_str(&format!("  \"end_to_end_p50_us\": {p50},\n"));
    json.push_str(&format!("  \"end_to_end_p90_us\": {p90},\n"));
    json.push_str(&format!("  \"end_to_end_p99_us\": {p99},\n"));
    json.push_str("  \"phases\": [\n");
    for (i, name) in PHASES.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}}}{}\n",
            percentile_sorted(&phase_samples[i], 50),
            percentile_sorted(&phase_samples[i], 90),
            percentile_sorted(&phase_samples[i], 99),
            if i + 1 == PHASES.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"straggler_gap_p99_us\": {straggler_p99},\n"));
    match baseline {
        Some(b) => json.push_str(&format!("  \"baseline_p99_us\": {b},\n")),
        None => json.push_str("  \"baseline_p99_us\": null,\n"),
    }
    json.push_str(&format!("  \"gate\": 1.1,\n  \"pass\": {pass}\n}}\n"));

    let path = out_dir.join("BENCH_latency.json");
    host::write_result(&path, json);
    println!("wrote {}", path.display());
    if !pass {
        eprintln!("end-to-end p99 regressed more than 10% against the committed baseline");
        std::process::exit(1);
    }
}
