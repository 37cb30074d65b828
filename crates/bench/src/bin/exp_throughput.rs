//! Experiment E-THRU — throughput of batched, pipelined commit.
//!
//! Sweeps `BatchPolicy` (max batch size × pipeline depth) over two cluster
//! shapes and measures committed requests per simulated second under a
//! closed-loop multi-client workload. The network charges a per-message
//! egress serialization cost (`SimConfig::tx_cost`), so message *count* —
//! the quantity batching amortizes — is visible in simulated time; with
//! the default pure-delay model a slot's cost is independent of how many
//! messages it takes, and batching would show nothing.
//!
//! Configurations measured per cluster:
//!
//! * `legacy` — `BatchPolicy::default()`, the passthrough identity: one
//!   request per slot, *unbounded* slots in flight (the pre-batching
//!   protocol). Reported for context; its unbounded pipelining already
//!   overlaps slots, so batching's win over it is bounded by the
//!   per-request forward/reply floor.
//! * `b{B}d{D}` — gated policies: batches of up to `B`, at most `D`
//!   slots in flight. `b1d1` is the unbatched serial baseline the
//!   acceptance gate compares against: one request per slot, one slot at
//!   a time.
//!
//! Writes `BENCH_throughput.json` (to the first CLI argument, default the
//! current directory) and exits non-zero unless batch 16 / depth 4 commits
//! at ≥ 3× the rate of the unbatched `b1d1` baseline on the 5-replica
//! cluster.

use std::path::PathBuf;

use qsel_bench::{host, Table};
use qsel_simnet::{SimDuration, SimTime};
use qsel_types::ClusterConfig;
use qsel_xpaxos::harness::{total_committed, ClusterBuilder};
use qsel_xpaxos::policy::BatchPolicy;
use qsel_xpaxos::replica::ReplicaConfig;

const SEED: u64 = 11;
const CLIENTS: u32 = 32;
const OPS_PER_CLIENT: u64 = 20;
/// Per-message egress serialization cost: the knob that makes message
/// count cost simulated time.
const TX_COST_MICROS: u64 = 60;
/// Batch accumulation window for gated policies with batch size > 1.
const BATCH_DELAY_MICROS: u64 = 800;
/// Simulated-time budget per run.
const DEADLINE_MICROS: u64 = 60_000_000;
/// Simulated-time granularity of the completion probe (bounds the
/// throughput measurement error per run).
const SLICE_MICROS: u64 = 500;

/// A single measured configuration.
struct Row {
    cluster: String,
    label: String,
    throughput: f64,
    sim_ms: f64,
}

/// A gated single-request policy: equal in shape to the passthrough
/// default but distinguishable from it (non-zero delay), so the depth
/// gate actually applies. With `max_batch_size == 1` every batch closes
/// as full immediately; the delay never adds latency.
fn gated(batch: usize, depth: usize) -> BatchPolicy {
    let delay = if batch == 1 { 1 } else { BATCH_DELAY_MICROS };
    BatchPolicy::new(batch, SimDuration::micros(delay), depth)
}

/// Runs the workload under `policy` and returns committed requests per
/// simulated second (and the simulated completion time in ms).
fn run(cfg: ClusterConfig, policy: BatchPolicy) -> (f64, f64) {
    let mut rcfg = ReplicaConfig {
        batch: policy,
        ..Default::default()
    };
    // Saturating a serializing NIC stretches message latencies well past
    // the LAN-tuned detector defaults; relax them identically for every
    // configuration so the comparison measures batching, not spurious
    // view changes.
    rcfg.fd.initial_timeout = SimDuration::millis(20);
    rcfg.heartbeat_period = SimDuration::millis(20);
    rcfg.view_change_timeout = SimDuration::millis(50);
    let mut sim = ClusterBuilder::new(cfg, SEED)
        .replica_config(rcfg)
        .clients(CLIENTS, OPS_PER_CLIENT)
        .retry(SimDuration::millis(100))
        .tx_cost(SimDuration::micros(TX_COST_MICROS))
        .build();
    let expected = u64::from(CLIENTS) * OPS_PER_CLIENT;
    let mut now = 0u64;
    while total_committed(&sim) < expected && now < DEADLINE_MICROS {
        now += SLICE_MICROS;
        sim.run_until(SimTime::from_micros(now));
    }
    assert_eq!(
        total_committed(&sim),
        expected,
        "workload must finish inside the deadline"
    );
    let secs = now as f64 / 1_000_000.0;
    (expected as f64 / secs, now as f64 / 1_000.0)
}

fn main() {
    let out_dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));

    let n5 = ClusterConfig::new(5, 1).unwrap();
    let n7 = ClusterConfig::new(7, 2).unwrap();

    let mut rows: Vec<Row> = Vec::new();
    let measure = |rows: &mut Vec<Row>,
                   cluster: &str,
                   cfg: ClusterConfig,
                   label: String,
                   pol: BatchPolicy| {
        let (thr, sim_ms) = run(cfg, pol);
        rows.push(Row {
            cluster: cluster.to_string(),
            label,
            throughput: thr,
            sim_ms,
        });
    };

    // n=5: full grid, plus the legacy passthrough for context.
    measure(&mut rows, "n5", n5, "legacy".into(), BatchPolicy::default());
    for depth in [1usize, 2, 4] {
        for batch in [1usize, 4, 16] {
            measure(
                &mut rows,
                "n5",
                n5,
                format!("b{batch}d{depth}"),
                gated(batch, depth),
            );
        }
    }
    // n=7 f=2: corners only.
    measure(&mut rows, "n7", n7, "b1d1".into(), gated(1, 1));
    measure(&mut rows, "n7", n7, "b16d4".into(), gated(16, 4));

    let thr_of = |cluster: &str, label: &str| {
        rows.iter()
            .find(|r| r.cluster == cluster && r.label == label)
            .map(|r| r.throughput)
            .expect("configuration measured")
    };
    let baseline = thr_of("n5", "b1d1");
    let batched = thr_of("n5", "b16d4");
    let legacy = thr_of("n5", "legacy");
    let speedup = batched / baseline;
    let speedup_vs_legacy = batched / legacy;
    let pass = speedup >= 3.0;

    let mut t = Table::new(vec!["cluster", "policy", "req/sim-s", "sim ms"]);
    for r in &rows {
        t.drow(vec![
            r.cluster.clone(),
            r.label.clone(),
            format!("{:.0}", r.throughput),
            format!("{:.1}", r.sim_ms),
        ]);
    }
    t.print("E-THRU — batched + pipelined commit throughput");
    println!("speedup b16d4 vs b1d1 (n=5):   {speedup:.2}x  (gate: >= 3.0x)");
    println!("speedup b16d4 vs legacy (n=5): {speedup_vs_legacy:.2}x");

    let mut json = String::from("{\n  \"experiment\": \"E-THRU\",\n");
    json.push_str(&format!(
        "  \"workload\": \"clients={CLIENTS} ops={OPS_PER_CLIENT} seed={SEED} \
         tx_cost_us={TX_COST_MICROS} batch_delay_us={BATCH_DELAY_MICROS}\",\n"
    ));
    json.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"cluster\": \"{}\", \"policy\": \"{}\", \"requests_per_sim_second\": {:.1}, \
             \"sim_ms\": {:.1}}}{}\n",
            r.cluster,
            r.label,
            r.throughput,
            r.sim_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_b16d4_vs_b1d1_n5\": {speedup:.3},\n  \
         \"speedup_b16d4_vs_legacy_n5\": {speedup_vs_legacy:.3},\n  \
         \"gate\": 3.0,\n  \"pass\": {pass}\n}}\n"
    ));
    let path = out_dir.join("BENCH_throughput.json");
    host::write_result(&path, json);
    println!("wrote {}", path.display());
    if !pass {
        eprintln!("batched throughput below the 3x acceptance gate");
        std::process::exit(1);
    }
}
