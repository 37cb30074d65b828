//! Integration tests for causal-span latency attribution (DESIGN.md §14).
//!
//! The span reconstructor has unit tests on hand-built traces inside
//! `qsel-obs`; here the whole stack is exercised — a real batched run,
//! export, reparse, reconstruction — and the claims that only hold
//! end-to-end are pinned:
//!
//! 1. under a non-passthrough `BatchPolicy`, the time a request parks in
//!    the leader's accumulation window (`batch_wait`) is *included* in
//!    the client-observed `ClientCommit::latency_us`, and the span
//!    decomposition makes it visible;
//! 2. for every attributed span the six phases sum **exactly** to the
//!    end-to-end latency — the decomposition is a partition, not an
//!    approximation;
//! 3. every committed request attributes to a full causal chain in a
//!    fault-free run (nothing silently dropped from the report).

use qsel_repro::qsel_obs::replay::parse_jsonl;
use qsel_repro::qsel_obs::span::{SpanReport, PHASES};
use qsel_repro::qsel_scenario::run_scenario;
use qsel_repro::qsel_scenario::{BatchSpec, Cluster, RunSpec, Scenario, Workload};

/// One closed-loop workload under the given batch policy, spans rebuilt
/// from the exported (not in-memory) trace.
fn spans_under(batch: BatchSpec) -> (SpanReport, u64) {
    let sc = Scenario {
        name: "latency-itest".to_string(),
        cluster: Cluster {
            n: 5,
            f: 1,
            ..Cluster::default()
        },
        workload: Workload {
            clients: 3,
            ops_per_client: 8,
            ..Workload::default()
        },
        batch,
        run: RunSpec {
            settle_us: 10_000_000,
            min_commit_permille: 1000,
            stable_from_us: None,
        },
        ..Scenario::default()
    };
    let artifacts = run_scenario(&sc, 5).expect("scenario runs");
    assert!(artifacts.verdict.pass(), "fault-free run must pass");
    let committed = artifacts.verdict.metrics["committed_ops"];
    let records = parse_jsonl(&artifacts.trace_jsonl).expect("export reparses");
    (SpanReport::build(&records), committed)
}

#[test]
fn batch_wait_is_part_of_client_observed_latency() {
    // Size-8 batches with a 400us accumulation window: most batches close
    // on the timer, so requests demonstrably park before being proposed.
    let (batched, committed) = spans_under(BatchSpec {
        max_size: 8,
        max_delay_us: 400,
        pipeline_depth: 2,
    });
    assert_eq!(batched.spans.len() as u64, committed);
    assert!(batched.unattributed.is_empty());

    let bw = PHASES.iter().position(|p| *p == "batch_wait").unwrap();
    let total_wait: u64 = batched.spans.iter().map(|s| s.phases[bw]).sum();
    assert!(
        total_wait > 0,
        "a timer-gated batch policy must produce non-zero batch_wait"
    );
    // The wait is inside the client-observed latency, not alongside it:
    // every span's latency bounds its own batch_wait component...
    for s in &batched.spans {
        assert!(
            s.latency_us >= s.phases[bw],
            "client {} op {}: batch_wait {}us exceeds latency {}us",
            s.client,
            s.op,
            s.phases[bw],
            s.latency_us
        );
    }
    // ...and the workload-wide mean latency strictly exceeds the
    // passthrough baseline's by (at least a share of) the parked time.
    let (passthrough, pt_committed) = spans_under(BatchSpec::default());
    assert_eq!(passthrough.spans.len() as u64, pt_committed);
    let mean = |r: &SpanReport| -> u64 {
        r.spans.iter().map(|s| s.latency_us).sum::<u64>() / r.spans.len() as u64
    };
    assert!(
        mean(&batched) > mean(&passthrough),
        "batch-wait must show up in client-observed latency: batched mean \
         {}us vs passthrough mean {}us",
        mean(&batched),
        mean(&passthrough)
    );
    let pt_wait: u64 = passthrough.spans.iter().map(|s| s.phases[bw]).sum();
    assert_eq!(
        pt_wait, 0,
        "passthrough has no accumulation window to wait in"
    );
}

#[test]
fn phases_partition_latency_exactly_for_every_span() {
    for batch in [
        BatchSpec::default(),
        BatchSpec {
            max_size: 4,
            max_delay_us: 250,
            pipeline_depth: 3,
        },
    ] {
        let (report, committed) = spans_under(batch);
        assert_eq!(
            report.spans.len() as u64,
            committed,
            "all commits attribute"
        );
        for s in &report.spans {
            assert_eq!(
                s.phase_sum(),
                s.latency_us,
                "client {} op {} (batch {batch:?}): phases {:?} do not sum to \
                 the end-to-end latency",
                s.client,
                s.op,
                s.phases
            );
        }
    }
}
