//! Causal span reconstruction and critical-path latency attribution.
//!
//! Offline, from the per-seed JSONL trace alone, this module rebuilds the
//! causal chain of every committed client request —
//!
//! ```text
//! client issue ──(backoff/retries)──▶ leader admission ──(batch wait)──▶
//! propose ──(PREPARE out, COMMIT votes back)──▶ decide ──▶ execute ──▶
//! reply ──▶ client commit (f+1 matching replies)
//! ```
//!
//! — and decomposes each request's end-to-end latency into six named,
//! *consecutive* phases (see [`PHASES`]). Because the phases partition
//! `[t_issue, t_commit]` exactly, they sum to the client-observed
//! `ClientCommit::latency_us` with no residue: the decomposition of any
//! single request is exact, and the decomposition of the nearest-rank p99
//! request (the [`SpanReport::p99_span`] critical path) sums exactly to
//! the end-to-end p99.
//!
//! The anchors come from the trace events PR 8 added for exactly this
//! purpose: `batch_admitted` (admission into the leader's proposal path),
//! `req_proposed` (request → slot binding), `commit_vote` (per-vote
//! quorum formation, whose first-to-last gap is the straggler gap) and
//! `reply_sent` (execution-time reply emission). Everything is a pure
//! function of the trace, so reports are byte-identical across same-seed
//! runs.

use std::collections::BTreeMap;

use crate::event::{TraceEvent, TraceRecord};
use crate::json::json_str;
use crate::metrics::percentile_sorted;

/// The six consecutive phases a request's end-to-end latency is split
/// into, in causal order:
///
/// 1. `client_backoff` — issue to the last retransmission that reached
///    the leader (0 when the first send got through);
/// 2. `request_network` — client send to leader admission (includes
///    follower forwarding);
/// 3. `batch_wait` — admission to batch close/propose (0 in passthrough);
/// 4. `quorum_wait` — propose to decide: PREPARE dissemination plus
///    COMMIT-vote collection (leader processing is instantaneous in
///    sim-time, so it folds in here);
/// 5. `execute` — decide to execution/reply-send at the proposer;
/// 6. `reply` — reply send to the client's f+1-th matching reply.
pub const PHASES: [&str; 6] = [
    "client_backoff",
    "request_network",
    "batch_wait",
    "quorum_wait",
    "execute",
    "reply",
];

/// One committed request's reconstructed causal span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestSpan {
    /// The issuing client id.
    pub client: u32,
    /// The client's operation number.
    pub op: u64,
    /// The leader that proposed the slot the request committed in.
    pub proposer: u32,
    /// The slot the request committed in.
    pub slot: u64,
    /// Issue time (client-side), in simulated microseconds.
    pub t_issue: u64,
    /// Commit time (f+1 matching replies at the client).
    pub t_commit: u64,
    /// Client-observed end-to-end latency (`t_commit - t_issue`).
    pub latency_us: u64,
    /// Per-phase durations in [`PHASES`] order; they partition
    /// `[t_issue, t_commit]`, so their sum equals `latency_us` exactly.
    pub phases: [u64; 6],
    /// Gap between the first and last COMMIT vote the proposer recorded
    /// for the slot before deciding (0 with fewer than two votes).
    pub straggler_gap_us: u64,
    /// Client retransmissions before commit.
    pub retries: u64,
}

impl RequestSpan {
    /// Sum of the six phases — always exactly `latency_us`.
    pub fn phase_sum(&self) -> u64 {
        self.phases.iter().sum()
    }
}

/// The spans of every committed request in a trace, plus the commits the
/// reconstruction could not causally attribute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanReport {
    /// Fully attributed spans, sorted by `(client, op)`.
    pub spans: Vec<RequestSpan>,
    /// `(client, op)` of committed requests with a broken causal chain
    /// (e.g. the proposer's trace never recorded a reply send).
    pub unattributed: Vec<(u32, u64)>,
}

impl SpanReport {
    /// Reconstructs every committed request's span from a trace.
    pub fn build(records: &[TraceRecord]) -> SpanReport {
        // (client, op) -> (t_commit, latency_us), first commit wins.
        let mut commits: BTreeMap<(u32, u64), (u64, u64)> = BTreeMap::new();
        // (client, op) -> retry times, ascending.
        let mut retries: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
        // (client, op) -> (t, leader) admissions, ascending.
        let mut admits: BTreeMap<(u32, u64), Vec<(u64, u32)>> = BTreeMap::new();
        // (client, op) -> (t, proposer, slot) proposals, ascending.
        type Proposal = (u64, u32, u64);
        let mut proposals: BTreeMap<(u32, u64), Vec<Proposal>> = BTreeMap::new();
        // (proposer, slot) -> decide times, ascending.
        let mut decided: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
        // (proposer, client, op) -> reply-send times, ascending.
        let mut replies: BTreeMap<(u32, u32, u64), Vec<u64>> = BTreeMap::new();
        // (proposer, slot) -> commit-vote times, ascending.
        let mut votes: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
        for r in records {
            match &r.event {
                TraceEvent::ClientCommit {
                    client,
                    op,
                    latency_us,
                } => {
                    commits.entry((*client, *op)).or_insert((r.t, *latency_us));
                }
                TraceEvent::ClientRetry { client, op, .. } => {
                    retries.entry((*client, *op)).or_default().push(r.t);
                }
                TraceEvent::BatchAdmitted { p, client, op } => {
                    admits.entry((*client, *op)).or_default().push((r.t, *p));
                }
                TraceEvent::ReqProposed {
                    p,
                    slot,
                    client,
                    op,
                } => {
                    proposals
                        .entry((*client, *op))
                        .or_default()
                        .push((r.t, *p, *slot));
                }
                TraceEvent::Decided { p, slot } => {
                    decided.entry((*p, *slot)).or_default().push(r.t);
                }
                TraceEvent::ReplySent { p, client, op, .. } => {
                    replies.entry((*p, *client, *op)).or_default().push(r.t);
                }
                TraceEvent::CommitVote { p, slot, .. } => {
                    votes.entry((*p, *slot)).or_default().push(r.t);
                }
                _ => {}
            }
        }
        let mut report = SpanReport::default();
        for ((client, op), (t_commit, latency_us)) in &commits {
            let (client, op, t_commit, latency_us) = (*client, *op, *t_commit, *latency_us);
            let t_issue = t_commit.saturating_sub(latency_us);
            // The proposal that led to this commit: the last one at or
            // before the commit (re-proposals after view changes override
            // earlier attempts).
            let Some(&(t_prop, proposer, slot)) = proposals
                .get(&(client, op))
                .and_then(|v| v.iter().rev().find(|(t, _, _)| *t <= t_commit))
            else {
                report.unattributed.push((client, op));
                continue;
            };
            // Execution/reply at the proposer; without it the chain's tail
            // is unobservable.
            let Some(&t_exec) = replies
                .get(&(proposer, client, op))
                .and_then(|v| v.iter().find(|t| **t >= t_prop))
            else {
                report.unattributed.push((client, op));
                continue;
            };
            // Admission at the proposer (a new leader re-proposing from a
            // NEW-VIEW certificate never admitted the request itself — the
            // batch-wait phase collapses to zero there).
            let t_admit = admits
                .get(&(client, op))
                .and_then(|v| {
                    v.iter()
                        .rev()
                        .find(|(t, p)| *t <= t_prop && *p == proposer)
                        .or_else(|| v.iter().rev().find(|(t, _)| *t <= t_prop))
                })
                .map_or(t_prop, |(t, _)| *t);
            // The send that reached the leader: the last retransmission at
            // or before admission (issue time if the first send landed).
            let t_send = retries
                .get(&(client, op))
                .and_then(|v| v.iter().rev().find(|t| **t <= t_admit))
                .map_or(t_issue, |t| *t);
            let t_dec = decided
                .get(&(proposer, slot))
                .and_then(|v| v.iter().find(|t| **t >= t_prop))
                .map_or(t_exec, |t| *t);
            // Monotone anchor chain partitioning [t_issue, t_commit].
            let mut anchors = [t_issue, t_send, t_admit, t_prop, t_dec, t_exec, t_commit];
            for i in 1..anchors.len() {
                anchors[i] = anchors[i].clamp(anchors[i - 1], t_commit);
            }
            let mut phases = [0u64; 6];
            for (i, w) in anchors.windows(2).enumerate() {
                phases[i] = w[1] - w[0];
            }
            let straggler_gap_us = votes
                .get(&(proposer, slot))
                .map(|v| {
                    let in_window: Vec<u64> = v
                        .iter()
                        .copied()
                        .filter(|t| *t >= t_prop && *t <= t_dec)
                        .collect();
                    match (in_window.first(), in_window.last()) {
                        (Some(first), Some(last)) => last - first,
                        _ => 0,
                    }
                })
                .unwrap_or(0);
            let retry_count = retries
                .get(&(client, op))
                .map_or(0, |v| v.iter().filter(|t| **t <= t_commit).count())
                as u64;
            report.spans.push(RequestSpan {
                client,
                op,
                proposer,
                slot,
                t_issue,
                t_commit,
                latency_us,
                phases,
                straggler_gap_us,
                retries: retry_count,
            });
        }
        report
    }

    /// Attributed end-to-end latencies, ascending.
    pub fn latencies_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.spans.iter().map(|s| s.latency_us).collect();
        v.sort_unstable();
        v
    }

    /// Attributed durations of phase `i` (index into [`PHASES`]),
    /// ascending.
    pub fn phase_sorted(&self, i: usize) -> Vec<u64> {
        let mut v: Vec<u64> = self.spans.iter().map(|s| s.phases[i]).collect();
        v.sort_unstable();
        v
    }

    /// Attributed straggler gaps, ascending.
    pub fn straggler_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.spans.iter().map(|s| s.straggler_gap_us).collect();
        v.sort_unstable();
        v
    }

    /// The span whose end-to-end latency is the exact nearest-rank p99 —
    /// the run's p99 critical path. Ties break deterministically on
    /// `(latency, client, op)`. `None` with no attributed spans.
    pub fn p99_span(&self) -> Option<&RequestSpan> {
        if self.spans.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| {
            let s = &self.spans[i];
            (s.latency_us, s.client, s.op)
        });
        let latencies = self.latencies_sorted();
        let p99 = percentile_sorted(&latencies, 99);
        order
            .iter()
            .map(|&i| &self.spans[i])
            .find(|s| s.latency_us == p99)
    }

    /// Renders the canonical `latency_report.json` document: identity,
    /// attribution coverage, exact end-to-end and per-phase quantiles,
    /// the p99 critical path's exact decomposition (whose phases sum to
    /// the end-to-end p99 by construction), and straggler-gap quantiles.
    ///
    /// Pure function of the spans: byte-identical across same-seed runs.
    pub fn to_json(&self, scenario: &str, seed: u64) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"scenario\": {},\n", json_str(scenario)));
        out.push_str(&format!("  \"seed\": {},\n", seed));
        out.push_str(&format!(
            "  \"requests\": {},\n",
            self.spans.len() + self.unattributed.len()
        ));
        out.push_str(&format!("  \"attributed\": {},\n", self.spans.len()));
        out.push_str(&format!(
            "  \"unattributed\": {},\n",
            self.unattributed.len()
        ));
        let lat = self.latencies_sorted();
        let mean = if lat.is_empty() {
            0
        } else {
            lat.iter().sum::<u64>() / lat.len() as u64
        };
        out.push_str(&format!(
            "  \"end_to_end_us\": {{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},\n",
            lat.len(),
            mean,
            percentile_sorted(&lat, 50),
            percentile_sorted(&lat, 90),
            percentile_sorted(&lat, 99),
            lat.last().copied().unwrap_or(0)
        ));
        out.push_str("  \"phases\": [");
        for (i, name) in PHASES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ph = self.phase_sorted(i);
            let total: u64 = ph.iter().sum();
            let mean = if ph.is_empty() {
                0
            } else {
                total / ph.len() as u64
            };
            out.push_str(&format!(
                "\n    {{\"name\":{},\"total_us\":{},\"mean_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                json_str(name),
                total,
                mean,
                percentile_sorted(&ph, 50),
                percentile_sorted(&ph, 90),
                percentile_sorted(&ph, 99),
                ph.last().copied().unwrap_or(0)
            ));
        }
        if !PHASES.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        match self.p99_span() {
            Some(s) => {
                out.push_str(&format!(
                    "  \"p99_attribution\": {{\"client\":{},\"op\":{},\"proposer\":{},\"slot\":{},\"latency_us\":{},\"phases\":[",
                    s.client, s.op, s.proposer, s.slot, s.latency_us
                ));
                for (i, name) in PHASES.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{}]", json_str(name), s.phases[i]));
                }
                out.push_str("]},\n");
            }
            None => out.push_str("  \"p99_attribution\": null,\n"),
        }
        let gaps = self.straggler_sorted();
        out.push_str(&format!(
            "  \"straggler_gap_us\": {{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}\n",
            percentile_sorted(&gaps, 50),
            percentile_sorted(&gaps, 90),
            percentile_sorted(&gaps, 99),
            gaps.last().copied().unwrap_or(0)
        ));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, t: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, t, event }
    }

    /// A minimal hand-built commit chain: issue at 100 (implied), admit at
    /// 110, propose at 150, votes at 180/220, decide at 220, reply at 225,
    /// client commit at 260 with latency 160.
    fn chain() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                110,
                TraceEvent::BatchAdmitted {
                    p: 0,
                    client: 10,
                    op: 3,
                },
            ),
            rec(
                1,
                150,
                TraceEvent::ReqProposed {
                    p: 0,
                    slot: 5,
                    client: 10,
                    op: 3,
                },
            ),
            rec(
                2,
                180,
                TraceEvent::CommitVote {
                    p: 0,
                    slot: 5,
                    from: 1,
                    have: 1,
                },
            ),
            rec(
                3,
                220,
                TraceEvent::CommitVote {
                    p: 0,
                    slot: 5,
                    from: 2,
                    have: 2,
                },
            ),
            rec(4, 220, TraceEvent::Decided { p: 0, slot: 5 }),
            rec(
                5,
                225,
                TraceEvent::ReplySent {
                    p: 0,
                    client: 10,
                    op: 3,
                    slot: 5,
                },
            ),
            rec(
                6,
                260,
                TraceEvent::ClientCommit {
                    client: 10,
                    op: 3,
                    latency_us: 160,
                },
            ),
        ]
    }

    #[test]
    fn phases_partition_end_to_end_exactly() {
        let report = SpanReport::build(&chain());
        assert_eq!(report.unattributed, Vec::<(u32, u64)>::new());
        assert_eq!(report.spans.len(), 1);
        let s = &report.spans[0];
        assert_eq!(s.t_issue, 100);
        assert_eq!(s.t_commit, 260);
        assert_eq!(s.proposer, 0);
        assert_eq!(s.slot, 5);
        // [backoff, request_network, batch_wait, quorum_wait, execute, reply]
        assert_eq!(s.phases, [0, 10, 40, 70, 5, 35]);
        assert_eq!(s.phase_sum(), s.latency_us);
        assert_eq!(s.straggler_gap_us, 40, "first vote 180, last 220");
    }

    #[test]
    fn retries_shift_backoff_phase() {
        let mut records = chain();
        records.insert(
            0,
            rec(
                9,
                105,
                TraceEvent::ClientRetry {
                    client: 10,
                    op: 3,
                    interval_us: 5,
                },
            ),
        );
        let report = SpanReport::build(&records);
        let s = &report.spans[0];
        // Backoff absorbs issue→last-retry; network shrinks accordingly.
        assert_eq!(s.phases[0], 5);
        assert_eq!(s.phases[1], 5);
        assert_eq!(s.phase_sum(), s.latency_us);
        assert_eq!(s.retries, 1);
    }

    #[test]
    fn broken_chain_is_unattributed() {
        // Drop the reply_sent record: the tail is unobservable.
        let records: Vec<TraceRecord> = chain()
            .into_iter()
            .filter(|r| !matches!(r.event, TraceEvent::ReplySent { .. }))
            .collect();
        let report = SpanReport::build(&records);
        assert!(report.spans.is_empty());
        assert_eq!(report.unattributed, vec![(10, 3)]);
    }

    #[test]
    fn p99_attribution_sums_to_e2e_p99() {
        // Three requests with distinct latencies; p99 == max here.
        let mut records = Vec::new();
        let mut seq = 0;
        for (op, commit_t, latency) in [(0u64, 300u64, 200u64), (1, 700, 120), (2, 1100, 250)] {
            let base = commit_t - latency;
            records.push(rec(
                seq,
                base + 10,
                TraceEvent::BatchAdmitted {
                    p: 0,
                    client: 1,
                    op,
                },
            ));
            records.push(rec(
                seq + 1,
                base + 20,
                TraceEvent::ReqProposed {
                    p: 0,
                    slot: op,
                    client: 1,
                    op,
                },
            ));
            records.push(rec(
                seq + 2,
                base + 60,
                TraceEvent::Decided { p: 0, slot: op },
            ));
            records.push(rec(
                seq + 3,
                base + 60,
                TraceEvent::ReplySent {
                    p: 0,
                    client: 1,
                    op,
                    slot: op,
                },
            ));
            records.push(rec(
                seq + 4,
                commit_t,
                TraceEvent::ClientCommit {
                    client: 1,
                    op,
                    latency_us: latency,
                },
            ));
            seq += 5;
        }
        let report = SpanReport::build(&records);
        assert_eq!(report.spans.len(), 3);
        let p99 = percentile_sorted(&report.latencies_sorted(), 99);
        let s = report.p99_span().expect("p99 span");
        assert_eq!(s.latency_us, p99);
        assert_eq!(s.phase_sum(), p99, "critical-path phases sum to e2e p99");
        assert_eq!(s.op, 2);
    }

    #[test]
    fn report_json_is_deterministic_and_total() {
        let report = SpanReport::build(&chain());
        let a = report.to_json("unit", 7);
        let b = SpanReport::build(&chain()).to_json("unit", 7);
        assert_eq!(a, b);
        assert!(a.contains("\"p99_attribution\""));
        assert!(a.contains("\"straggler_gap_us\""));
        let empty = SpanReport::default().to_json("empty", 1);
        assert!(empty.contains("\"p99_attribution\": null"));
    }
}
