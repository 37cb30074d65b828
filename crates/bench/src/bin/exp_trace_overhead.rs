//! Experiment E-TRACE-OVH — cost of the tracing instrumentation.
//!
//! The `qsel-obs` sink is wired through every layer of the stack but must
//! be free when nobody is listening: `TraceSink::emit` takes the event as
//! a closure and returns before constructing it whenever the sink is
//! disabled (the default). This experiment measures both sides of that
//! contract on a fixed closed-loop workload (4 replicas, f = 1, 2 clients
//! committing 60 ops each under a healthy network):
//!
//! * wall time of the workload with the sink **disabled** vs. with an
//!   **unbounded** recording sink (the cost of actually collecting the
//!   trace), interleaved A/B to cancel clock drift;
//! * a microbenchmark of the disabled `emit` path itself, scaled by the
//!   number of events the traced run records, giving an upper estimate of
//!   what the instrumentation adds to an untraced run.
//!
//! Writes `BENCH_trace_overhead.json` (to the first CLI argument, default
//! the current directory) and exits non-zero if the estimated untraced
//! overhead reaches 2% — the regression budget the roadmap grants the
//! observability layer.

use std::path::PathBuf;

use qsel_bench::{host, Table};
use qsel_obs::{TraceEvent, TraceSink};
use qsel_simnet::SimTime;
use qsel_types::ClusterConfig;
use qsel_xpaxos::harness::{total_committed, ClusterBuilder};

const SEED: u64 = 9;
const CLIENTS: u32 = 2;
const OPS_PER_CLIENT: u64 = 60;
/// Simulated-time budget per run; the workload finishes well inside it.
const DEADLINE_MICROS: u64 = 30_000_000;
/// A/B pairs measured (after one warm-up pair).
const PAIRS: u32 = 12;

/// Runs the workload once and returns (wall µs, events recorded).
fn run_once(sink: TraceSink) -> (f64, u64) {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let mut sim = ClusterBuilder::new(cfg, SEED)
        .clients(CLIENTS, OPS_PER_CLIENT)
        .trace_sink(sink.clone())
        .build();
    let expected = u64::from(CLIENTS) * OPS_PER_CLIENT;
    let ((), elapsed) = host::timed(|| {
        let mut next = 0u64;
        while total_committed(&sim) < expected && next < DEADLINE_MICROS {
            next = (next + 500_000).min(DEADLINE_MICROS);
            sim.run_until(SimTime::from_micros(next));
        }
    });
    let wall = elapsed.as_nanos() as f64 / 1_000.0;
    assert_eq!(
        total_committed(&sim),
        expected,
        "workload must finish inside the deadline"
    );
    (wall, sink.len() as u64)
}

/// Nanoseconds per `emit` call on a disabled sink.
fn disabled_emit_ns() -> f64 {
    let sink = TraceSink::disabled();
    let reps: u64 = 20_000_000;
    let ((), elapsed) = host::timed(|| {
        for i in 0..reps {
            sink.emit(|| TraceEvent::Decided {
                p: (i % 4) as u32 + 1,
                slot: i,
            });
            std::hint::black_box(&sink);
        }
    });
    elapsed.as_nanos() as f64 / reps as f64
}

fn main() {
    let out_dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));

    // Warm-up pair (page cache, allocator), then interleaved measurement.
    let _ = run_once(TraceSink::disabled());
    let _ = run_once(TraceSink::unbounded());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut events = 0u64;
    for _ in 0..PAIRS {
        untraced.push(run_once(TraceSink::disabled()).0);
        let (wall, n) = run_once(TraceSink::unbounded());
        traced.push(wall);
        events = n;
    }
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (u_min, t_min) = (min(&untraced), min(&traced));
    let (u_mean, t_mean) = (mean(&untraced), mean(&traced));
    let recording_pct = (t_min - u_min) / u_min * 100.0;

    // The disabled path's cost, were it magically removable: per-emit cost
    // of a disabled sink times the number of emission sites the traced run
    // actually hit. This bounds the instrumentation tax on untraced runs.
    let emit_ns = disabled_emit_ns();
    let untraced_pct = (events as f64 * emit_ns / 1_000.0) / u_min * 100.0;
    let pass = untraced_pct < 2.0;

    let mut t = Table::new(vec!["variant", "min µs/run", "mean µs/run"]);
    t.drow(vec![
        "untraced (disabled sink)".to_string(),
        format!("{u_min:.0}"),
        format!("{u_mean:.0}"),
    ]);
    t.drow(vec![
        "traced (unbounded sink)".to_string(),
        format!("{t_min:.0}"),
        format!("{t_mean:.0}"),
    ]);
    t.print("E-TRACE-OVH — tracing overhead");
    println!("events per traced run:        {events}");
    println!("recording overhead:           {recording_pct:.2}%");
    println!("disabled emit:                {emit_ns:.2} ns/call");
    println!("est. untraced instrumentation: {untraced_pct:.4}%  (budget 2%)");

    let json = format!(
        "{{\n  \"workload\": \"n=4 f=1 clients={CLIENTS} ops={OPS_PER_CLIENT} seed={SEED}\",\n  \
         \"pairs\": {PAIRS},\n  \
         \"untraced_min_us\": {u_min:.1},\n  \
         \"untraced_mean_us\": {u_mean:.1},\n  \
         \"traced_min_us\": {t_min:.1},\n  \
         \"traced_mean_us\": {t_mean:.1},\n  \
         \"events_per_traced_run\": {events},\n  \
         \"recording_overhead_pct\": {recording_pct:.3},\n  \
         \"disabled_emit_ns\": {emit_ns:.3},\n  \
         \"untraced_overhead_pct\": {untraced_pct:.5},\n  \
         \"budget_pct\": 2.0,\n  \
         \"pass\": {pass}\n}}\n"
    );
    let path = out_dir.join("BENCH_trace_overhead.json");
    host::write_result(&path, json);
    println!("wrote {}", path.display());
    if !pass {
        eprintln!("untraced instrumentation overhead exceeds the 2% budget");
        std::process::exit(1);
    }
}
