//! Regenerates the golden default-policy traces pinned by `tests/batching.rs`.
//!
//! The compatibility contract is that `BatchPolicy::default()` (batch
//! size 1, pipeline depth 1, no delay) is a pure passthrough: a traced
//! run of the default 5-replica cluster must be byte-identical run after
//! run and against the committed goldens under `tests/golden/`, compared
//! byte-for-byte by `default_policy_traces_are_byte_identical_to_goldens`.
//! The goldens track the current trace vocabulary — most recently the
//! causal-span events (`batch_admitted`, `req_proposed`, `commit_vote`,
//! `reply_sent`) of DESIGN.md §14 — and were last regenerated when the
//! detector's duplicate poll timers went away (DESIGN.md §16), which only
//! deleted `timer_fired` lines: `tests/golden/deletions_only.py` is the
//! check to run against the previous goldens after any regeneration.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example golden_gen            # writes tests/golden/
//! cargo run --release --example golden_gen out/dir    # choose output dir
//! ```
//!
//! Only regenerate (and commit) new goldens when a deliberate, reviewed
//! change to the traced execution makes the old bytes stale.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use qsel_repro::qsel_obs::TraceSink;
use qsel_simnet::SimTime;
use qsel_types::ClusterConfig;
use qsel_xpaxos::harness::{total_committed, ClusterBuilder};

/// Seeds pinned as goldens. Two are enough to catch accidental divergence
/// without bloating the repo.
const SEEDS: &[u64] = &[7, 21];
const CLIENTS: u32 = 2;
const OPS_PER_CLIENT: u64 = 8;
/// Fixed horizon: the trace always covers exactly this window, so the
/// exported bytes do not depend on how a caller slices `run_until`.
const HORIZON_MICROS: u64 = 300_000;

fn main() {
    let out_dir = PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "tests/golden".to_string()),
    );
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    for &seed in SEEDS {
        let sink = TraceSink::unbounded();
        let cfg = ClusterConfig::new(5, 1).unwrap();
        let mut sim = ClusterBuilder::new(cfg, seed)
            .clients(CLIENTS, OPS_PER_CLIENT)
            .trace_sink(sink.clone())
            .build();
        sim.run_until(SimTime::from_micros(HORIZON_MICROS));
        let expected = u64::from(CLIENTS) * OPS_PER_CLIENT;
        assert_eq!(
            total_committed(&sim),
            expected,
            "seed {seed}: workload must finish inside the horizon"
        );
        let path = out_dir.join(format!("trace_default_seed{seed}.jsonl"));
        std::fs::write(&path, sink.export_jsonl()).expect("cannot write golden trace");
        println!("wrote {} ({} records)", path.display(), sink.len());
    }
}
