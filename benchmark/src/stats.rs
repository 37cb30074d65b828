//! Order statistics and the metric tables shared with `BENCHMARK.json`.

/// Median of `v` (sorted in place); the mean of the middle pair for even
/// lengths.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted `v` by linear interpolation.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo] + frac * (v[(lo + 1).min(v.len() - 1)] - v[lo])
    };
    (at(0.25), at(0.75))
}

/// The `q`-th percentile of sorted whole-number samples, interpolated
/// within the unit-wide bin it falls into (for `q = 50`, Python's
/// `statistics.median_grouped`). The simulator's clock rounds latencies to
/// whole microseconds; among tens of thousands of samples the nearest-rank
/// percentile would only ever move in whole steps.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn grouped_percentile(sorted: &[u64], q: u32) -> f64 {
    let rank = f64::from(q) / 100.0 * sorted.len() as f64;
    let value = sorted[(rank.ceil() as usize).clamp(1, sorted.len()) - 1];
    let below = sorted.partition_point(|v| *v < value);
    let same = sorted.partition_point(|v| *v <= value) - below;
    value as f64 - 0.5 + (rank - below as f64) / same as f64
}

/// End-to-end metrics (`--trace 0`): name, unit. Every one is reported by
/// every workload and is never 0; `benchmark/README.md` says what each
/// means.
pub const END_TO_END: [(&str, &str); 10] = [
    ("commits_per_wall_s", "1/s"),
    ("setup_s", "s"),
    ("allocs_per_commit", "count"),
    ("alloc_bytes_per_commit", "B"),
    ("peak_live_bytes", "B"),
    ("commit_latency_p50_sim_us", "us"),
    ("commit_latency_p99_sim_us", "us"),
    ("commits_per_sim_s", "1/s"),
    ("msgs_per_commit", "count"),
    ("max_commit_gap_sim_us", "us"),
];

/// Per-layer metrics (`--trace 1`): name, unit. Layers are crate names.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("simnet.events_per_s", "1/s"),
    ("simnet.step_self_ns", "ns"),
    ("simnet.self_share_pct", "%"),
    ("simnet.events_per_commit", "count"),
    ("simnet.timers_per_commit", "count"),
    ("types.sha256_mb_per_s", "MB/s"),
    ("types.sign_ns", "ns"),
    ("types.verify_ns", "ns"),
    ("types.encode_ns_per_msg", "ns"),
    ("types.decode_ns_per_msg", "ns"),
    ("types.encoded_bytes_per_commit", "B"),
    ("types.signs_per_commit", "count"),
    ("types.verifies_per_commit", "count"),
    ("xpaxos.handle_ns.request", "ns"),
    ("xpaxos.handle_ns.prepare", "ns"),
    ("xpaxos.handle_ns.commit", "ns"),
    ("xpaxos.handle_ns.reply", "ns"),
    ("xpaxos.handle_ns.heartbeat", "ns"),
    ("xpaxos.handle_ns.lazy-update", "ns"),
    ("xpaxos.handle_ns.view-change", "ns"),
    ("xpaxos.handle_ns.new-view", "ns"),
    ("xpaxos.handle_ns.update", "ns"),
    ("xpaxos.handle_ns.checkpoint", "ns"),
    ("xpaxos.handle_ns.sync", "ns"),
    ("xpaxos.timer_ns", "ns"),
    ("xpaxos.handler_share_pct", "%"),
    ("xpaxos.msgs_per_commit.request", "count"),
    ("xpaxos.msgs_per_commit.prepare", "count"),
    ("xpaxos.msgs_per_commit.commit", "count"),
    ("xpaxos.msgs_per_commit.reply", "count"),
    ("xpaxos.reqs_per_batch", "count"),
    ("xpaxos.batch_digest_ns", "ns"),
    ("xpaxos.log_slot_ns", "ns"),
    ("xpaxos.log_gc_ns_per_slot", "ns"),
    ("xpaxos.state_transfers", "count"),
    ("xpaxos.catchup_sim_us", "us"),
    ("xpaxos.passive_lag_slots_max", "count"),
    ("xpaxos.view_changes", "count"),
    ("detector.expect_receive_ns", "ns"),
    ("detector.poll_ns", "ns"),
    ("detector.expectations_per_commit", "count"),
    ("detector.suspicions_raised", "count"),
    ("detector.false_suspicions", "count"),
    ("core.matrix_merge_ns.n7", "ns"),
    ("core.matrix_merge_ns.n64", "ns"),
    ("core.build_graph_ns.n7", "ns"),
    ("core.build_graph_ns.n64", "ns"),
    ("core.on_update_ns.n7", "ns"),
    ("core.quorums_issued", "count"),
    ("core.epochs_entered", "count"),
    ("core.updates_per_view_change", "count"),
    ("core.max_quorums_per_epoch", "count"),
    ("graph.first_independent_set_ns.n7", "ns"),
    ("graph.first_independent_set_ns.n32", "ns"),
    ("graph.first_independent_set_ns.n64", "ns"),
    ("graph.maximal_line_subgraph_ns.n7", "ns"),
    ("graph.maximal_line_subgraph_ns.n32", "ns"),
    ("graph.maximal_line_subgraph_ns.n64", "ns"),
    ("mmr.push_ns", "ns"),
    ("mmr.proof_ns", "ns"),
    ("mmr.verify_ns", "ns"),
    ("obs.emit_disabled_ns", "ns"),
    ("obs.emit_enabled_ns", "ns"),
    ("obs.records_per_commit", "count"),
    ("obs.export_records_per_s", "1/s"),
    ("obs.parse_records_per_s", "1/s"),
    ("obs.replay_records_per_s", "1/s"),
    ("obs.span_records_per_s", "1/s"),
    ("obs.phase_p99_sim_us.request_network", "us"),
    ("obs.phase_p99_sim_us.batch_wait", "us"),
    ("obs.phase_p99_sim_us.quorum_wait", "us"),
    ("obs.phase_p99_sim_us.reply", "us"),
    ("scenario.parse_compile_ns", "ns"),
    ("scenario.pipeline_share_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.calibration_ns", "ns"),
    ("bench.failed_ops_permille", "permille"),
];
