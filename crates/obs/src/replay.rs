//! Offline trace replay: re-reads an exported JSONL trace and checks the
//! paper's invariants without re-running the simulation.
//!
//! Checks performed by [`analyze`]:
//!
//! 1. **Per-epoch quorum bounds** — for every `(process, epoch)` group of
//!    `quorum_issued` events at `t ≥ stable_from_micros`, the count must
//!    not exceed `f(f+1)` for Algorithm 1 (`"qs"`, Theorem 3) or `3f+1`
//!    for Algorithm 2 (`"fs"`, Theorem 9). The `stable_from_micros` gate
//!    mirrors the theorems' premise that the failure detector has become
//!    accurate: during active fault injection the suspect matrix is not
//!    monotone and the bounds do not apply. Pass `0` to check the whole
//!    trace.
//! 2. **Per-slot agreement** — every replica must execute the same
//!    *sequence* of request digests for one slot (a batched slot holds
//!    several requests, so a slot maps to a digest sequence, not a single
//!    digest), and all `batch_committed` events for one slot must carry
//!    the same batch digest across replicas (safety of the replicated
//!    log).
//! 3. **No delivery to a crashed incarnation** — between a `crash` of
//!    process *p* and its next `restart`, no `msg_deliver` (or
//!    `timer_fired`) may target *p*.
//! 4. **Checkpoint agreement** — every `checkpoint_stable` event for one
//!    slot must carry the same payload digest across replicas: correct
//!    replicas executing the same prefix compute byte-identical
//!    checkpoint payloads.
//! 5. **State-transfer integrity** — a `state_transfer_done` digest must
//!    match every `checkpoint_stable` digest at the same slot (in either
//!    trace order): the recovered replica recomputed the certified state.
//! 6. **GC floor** — after a process emits `log_gc` with bound *b*, none
//!    of its later `decided`/`executed`/`batch_committed` events may
//!    reference a slot below *b* (nothing references a
//!    garbage-collected slot).

use std::collections::BTreeMap;
#[expect(
    clippy::disallowed_types,
    reason = "D1: lookup-only counters; never iterated"
)]
use std::collections::HashMap;
use std::fmt;

use qsel_types::thresholds::{thm3_bound, thm9_bound, Faults};

use crate::event::{TraceEvent, TraceRecord};

/// Parses a JSONL trace export back into records, one
/// [`TraceRecord`] per non-blank line (the line grammar and the event
/// vocabulary belong to [`crate::event`]). Errors name the 1-based line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    let mut scratch = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.is_empty() {
            records.push(TraceRecord::parse_line(line, i + 1, &mut scratch)?);
        }
    }
    Ok(records)
}

/// Configuration for [`analyze`].
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// The fault threshold the run was configured with
    /// ([`ClusterConfig::f`](qsel_types::ClusterConfig::f)).
    pub f: Faults,
    /// Quorum-bound checks only count `quorum_issued` events at
    /// `t ≥ stable_from_micros` — the theorems assume an accurate failure
    /// detector, which only holds once fault injection has ceased. Use `0`
    /// to check the entire trace.
    pub stable_from_micros: u64,
}

/// The invariant a [`Violation`] broke — one per check in the
/// [module docs](self), in that order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// More quorums in one epoch than Theorem 3 / Theorem 9 allow.
    QuorumBound,
    /// Replicas executed or committed different contents for one slot.
    SlotAgreement,
    /// A message or timer reached a crashed, not yet restarted process.
    CrashedDelivery,
    /// Two stable checkpoints at one slot certify different payloads.
    CheckpointDivergence,
    /// A recovered state differs from the checkpoint certified at its slot.
    TransferDivergence,
    /// A process referenced a slot below its own GC floor.
    GcFloor,
}

/// One invariant violation found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Sequence number of the record that completed the violation.
    pub seq: u64,
    /// Its simulated timestamp (microseconds).
    pub t: u64,
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub desc: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq={} t={}us: {}", self.seq, self.t, self.desc)
    }
}

/// The result of replaying a trace through the invariant checks.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Total records inspected.
    pub records_checked: u64,
    /// All violations found, in trace order.
    pub violations: Vec<Violation>,
    /// Largest per-`(process, epoch)` quorum count observed for
    /// Algorithm 1 in the stable window (compare against `f(f+1)`).
    pub max_qs_quorums_per_epoch: u64,
    /// Largest per-`(process, epoch)` quorum count observed for
    /// Algorithm 2 in the stable window (compare against `3f+1`).
    pub max_fs_quorums_per_epoch: u64,
    /// Largest per-`(process, epoch)` quorum count anywhere in the trace,
    /// including the unstable (fault-injection) window. Informational.
    pub max_quorums_per_epoch_unstable: u64,
    /// Distinct slots whose executions were cross-checked.
    pub slots_checked: u64,
}

impl ReplayReport {
    /// Whether the trace passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records a violation completed by record `r`.
    fn flag(&mut self, r: &TraceRecord, kind: ViolationKind, desc: String) {
        self.violations.push(Violation {
            seq: r.seq,
            t: r.t,
            kind,
            desc,
        });
    }

    /// Records that `recovered` and `certified` — each a `(process, digest)`
    /// — disagree about the state at `slot`.
    fn flag_transfer(
        &mut self,
        r: &TraceRecord,
        slot: u64,
        recovered: (u32, u64),
        certified: (u32, u64),
    ) {
        let ((rp, rd), (cp, cd)) = (recovered, certified);
        self.flag(
            r,
            ViolationKind::TransferDivergence,
            format!(
                "state transfer divergence at slot {slot}: process {rp} recovered digest \
                 {rd:#018x} but process {cp} certified {cd:#018x}"
            ),
        );
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "replay: {} records, {} slots cross-checked",
            self.records_checked, self.slots_checked
        )?;
        writeln!(
            f,
            "  max quorums/epoch (stable window): qs={} fs={}",
            self.max_qs_quorums_per_epoch, self.max_fs_quorums_per_epoch
        )?;
        writeln!(
            f,
            "  max quorums/epoch (whole trace):   {}",
            self.max_quorums_per_epoch_unstable
        )?;
        if self.violations.is_empty() {
            writeln!(f, "  verdict: OK — no invariant violations")?;
        } else {
            writeln!(f, "  verdict: {} VIOLATION(S)", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "    {v}")?;
            }
        }
        Ok(())
    }
}

/// Replays `records` through the invariant checks described in the
/// [module docs](self).
#[expect(
    clippy::disallowed_types,
    reason = "D1: lookup-only counters; never iterated"
)]
pub fn analyze(records: &[TraceRecord], cfg: &ReplayConfig) -> ReplayReport {
    let mut report = ReplayReport {
        records_checked: records.len() as u64,
        ..ReplayReport::default()
    };

    // Check 1 state: quorum counts per (process, epoch, algo).
    let mut stable_counts: HashMap<(u32, u64, bool), u64> = HashMap::new();
    let mut all_counts: HashMap<(u32, u64, bool), u64> = HashMap::new();
    // Check 2 state: slot -> (reference process, its executed digest
    // sequence). A batched slot executes several requests, so agreement
    // is sequence-wise: the first process to execute the slot fixes the
    // reference order (its events are contiguous in the trace — one
    // simulation step executes the whole batch), and every later process
    // is compared index-by-index via a per-(process, slot) cursor.
    let mut slot_exec: BTreeMap<u64, (u32, Vec<u64>)> = BTreeMap::new();
    let mut exec_cursor: HashMap<(u32, u64), usize> = HashMap::new();
    // Check 2 state (batched runs): slot -> (batch digest, first writer,
    // first seq) from `batch_committed` events.
    let mut slot_batch_digest: BTreeMap<u64, (u64, u32, u64)> = BTreeMap::new();
    // Check 3 state: processes currently down (crashed, not yet restarted).
    let mut down: HashMap<u32, u64> = HashMap::new();
    // Check 4/5 state: slot -> (digest, first process, first seq) from
    // `checkpoint_stable`, and slot -> completed-transfer digests.
    let mut ckpt_digest: BTreeMap<u64, (u64, u32, u64)> = BTreeMap::new();
    let mut transfer_done: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
    // Check 6 state: per-process GC floor from `log_gc` events.
    let mut gc_floor: HashMap<u32, u64> = HashMap::new();

    let check_floor = |report: &mut ReplayReport,
                       gc_floor: &HashMap<u32, u64>,
                       r: &TraceRecord,
                       p: u32,
                       slot: u64| {
        if let Some(floor) = gc_floor.get(&p).filter(|floor| slot < **floor) {
            let what = r.event.name();
            report.flag(
                r,
                ViolationKind::GcFloor,
                format!(
                    "process {p} {what} references garbage-collected slot {slot} \
                     below its GC floor {floor}"
                ),
            );
        }
    };

    for r in records {
        match &r.event {
            TraceEvent::QuorumIssued { p, epoch, algo, .. } => {
                let is_fs = algo == "fs";
                let c = all_counts.entry((*p, *epoch, is_fs)).or_insert(0);
                *c += 1;
                report.max_quorums_per_epoch_unstable =
                    report.max_quorums_per_epoch_unstable.max(*c);
                if r.t >= cfg.stable_from_micros {
                    let c = stable_counts.entry((*p, *epoch, is_fs)).or_insert(0);
                    *c += 1;
                    let bound = if is_fs {
                        thm9_bound(cfg.f)
                    } else {
                        thm3_bound(cfg.f)
                    };
                    if is_fs {
                        report.max_fs_quorums_per_epoch = report.max_fs_quorums_per_epoch.max(*c);
                    } else {
                        report.max_qs_quorums_per_epoch = report.max_qs_quorums_per_epoch.max(*c);
                    }
                    if *c == bound + 1 {
                        let thm = if is_fs {
                            format!("Theorem 9 bound 3f+1={bound}")
                        } else {
                            format!("Theorem 3 bound f(f+1)={bound}")
                        };
                        report.flag(
                            r,
                            ViolationKind::QuorumBound,
                            format!(
                                "process {p} exceeded {thm}: quorum #{c} issued in epoch {epoch} \
                                 (algo {algo}) within the stable window"
                            ),
                        );
                    }
                }
            }
            TraceEvent::Executed { p, slot, digest } => {
                check_floor(&mut report, &gc_floor, r, *p, *slot);
                let (ref_p, seq) = slot_exec.entry(*slot).or_insert_with(|| (*p, Vec::new()));
                let cursor = exec_cursor.entry((*p, *slot)).or_insert(0);
                if *ref_p == *p {
                    seq.push(*digest);
                } else if *cursor >= seq.len() {
                    report.flag(
                        r,
                        ViolationKind::SlotAgreement,
                        format!(
                            "slot {slot} agreement broken: process {p} executed request \
                             #{cursor} (digest {digest:#018x}) but process {ref_p} executed \
                             only {} request(s) in that slot",
                            seq.len()
                        ),
                    );
                } else if seq[*cursor] != *digest {
                    let d0 = seq[*cursor];
                    report.flag(
                        r,
                        ViolationKind::SlotAgreement,
                        format!(
                            "slot {slot} agreement broken: at position {cursor} process {p} \
                             executed digest {digest:#018x} but process {ref_p} executed \
                             {d0:#018x}"
                        ),
                    );
                }
                *cursor += 1;
            }
            TraceEvent::Decided { p, slot } => {
                check_floor(&mut report, &gc_floor, r, *p, *slot);
            }
            TraceEvent::CheckpointStable { p, slot, digest } => {
                let (d0, p0, seq0) = *ckpt_digest.entry(*slot).or_insert((*digest, *p, r.seq));
                if d0 != *digest {
                    report.flag(
                        r,
                        ViolationKind::CheckpointDivergence,
                        format!(
                            "checkpoint divergence at slot {slot}: process {p} certified \
                             digest {digest:#018x} but process {p0} certified {d0:#018x} \
                             (seq {seq0})"
                        ),
                    );
                }
                // A transfer completed at this slot earlier in the trace
                // must have recomputed this same digest.
                for (d, dp) in transfer_done.get(slot).into_iter().flatten() {
                    if d != digest {
                        report.flag_transfer(r, *slot, (*dp, *d), (*p, *digest));
                    }
                }
            }
            TraceEvent::StateTransferDone { p, slot, digest } => {
                if let Some((d0, p0, _)) = ckpt_digest.get(slot).filter(|(d0, ..)| d0 != digest) {
                    report.flag_transfer(r, *slot, (*p, *digest), (*p0, *d0));
                }
                transfer_done.entry(*slot).or_default().push((*digest, *p));
            }
            TraceEvent::LogGc { p, below, .. } => {
                let floor = gc_floor.entry(*p).or_insert(0);
                *floor = (*floor).max(*below);
            }
            TraceEvent::BatchCommitted {
                p, slot, digest, ..
            } => {
                check_floor(&mut report, &gc_floor, r, *p, *slot);
                let (d0, p0, seq0) = *slot_batch_digest
                    .entry(*slot)
                    .or_insert((*digest, *p, r.seq));
                if d0 != *digest {
                    report.flag(
                        r,
                        ViolationKind::SlotAgreement,
                        format!(
                            "slot {slot} batch agreement broken: process {p} committed \
                             batch digest {digest:#018x} but process {p0} committed \
                             {d0:#018x} (seq {seq0})"
                        ),
                    );
                }
            }
            TraceEvent::Crash { p } => {
                down.insert(*p, r.seq);
            }
            TraceEvent::Restart { p, .. } => {
                down.remove(p);
            }
            TraceEvent::MsgDeliver { from, to, .. } => {
                if let Some(crash_seq) = down.get(to) {
                    report.flag(
                        r,
                        ViolationKind::CrashedDelivery,
                        format!(
                            "message from {from} delivered to {to}, which crashed at seq \
                             {crash_seq} and has not restarted"
                        ),
                    );
                }
            }
            TraceEvent::TimerFired { at } => {
                if let Some(crash_seq) = down.get(at) {
                    report.flag(
                        r,
                        ViolationKind::CrashedDelivery,
                        format!(
                            "timer fired at {at}, which crashed at seq {crash_seq} and has not \
                             restarted"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    report.slots_checked = (slot_exec.len() as u64).max(slot_batch_digest.len() as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault bound of a 4-process, 1-fault cluster.
    fn f1() -> Faults {
        qsel_types::ClusterConfig::new(4, 1).unwrap().f()
    }

    fn rec(seq: u64, t: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, t, event }
    }

    fn quorum(seq: u64, t: u64, p: u32, epoch: u64, algo: &str) -> TraceRecord {
        rec(
            seq,
            t,
            TraceEvent::QuorumIssued {
                p,
                epoch,
                algo: algo.into(),
                members: vec![1, 2, 3],
            },
        )
    }

    #[test]
    fn parse_rejects_unknown_event() {
        let err = parse_jsonl("{\"seq\":0,\"t\":0,\"ev\":\"warp_core_breach\"}\n").unwrap_err();
        assert!(err.contains("unknown event"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("{\"seq\":0,").is_err());
        assert!(parse_jsonl("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1}x").is_err());
        assert!(parse_jsonl("{\"t\":0,\"ev\":\"crash\",\"p\":1}").is_err());
    }

    /// Every error site of the parser, with the exact text the original
    /// field-map parser produced (accept/reject set and messages are part
    /// of the trace format's contract).
    #[test]
    fn malformed_lines_keep_their_exact_errors() {
        let cases: &[(&str, &str)] = &[
            ("{\"seq\":0,", "line 1: expected '\"' at byte 8, got None"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1}x", "line 1: trailing garbage after object"),
            ("{\"t\":0,\"ev\":\"crash\",\"p\":1}", "line 1: missing field \"seq\""),
            ("{}", "line 1: missing field \"seq\""),
            ("{\"seq\":\"x\",\"t\":0,\"ev\":\"crash\",\"p\":1}", "line 1: field \"seq\" is not a number"),
            ("{\"seq\":0,\"t\":[1],\"ev\":\"crash\",\"p\":1}", "line 1: field \"t\" is not a number"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":4294967296}", "line 1: field \"p\" is not a u32"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":\"1\"}", "line 1: field \"p\" is not a u32"),
            ("{\"seq\":0,\"t\":0,\"ev\":5,\"p\":1}", "line 1: field \"ev\" is not a string"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"suspicion_changed\",\"p\":1,\"suspected\":3}", "line 1: field \"suspected\" is not an array"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"msg_send\",\"from\":1,\"to\":2,\"kind\":7}", "line 1: field \"kind\" is not a string"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"msg_send\",\"from\":1,\"to\":2}", "line 1: missing field \"kind\""),
            ("{\"seq\":0,\"t\":0,\"ev\":\"warp_core_breach\"}", "line 1: unknown event \"warp_core_breach\""),
            ("{\"seq\":99999999999999999999999,\"t\":0,\"ev\":\"crash\",\"p\":1}", "line 1: number overflow at byte 7"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"suspicion_changed\",\"p\":1,\"suspected\":[1,]}", "line 1: expected digit at byte 61"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"suspicion_changed\",\"p\":1,\"suspected\":[4294967296]}", "line 1: array element exceeds u32"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"suspicion_changed\",\"p\":1,\"suspected\":[1 2]}", "line 1: expected ',' or ']' in array, got Some(' ')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"suspicion_changed\",\"p\":1,\"suspected\":[1", "line 1: expected ',' or ']' in array, got None"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash", "line 1: unterminated string"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"cr\\nash", "line 1: unterminated string"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"cra\\qsh\",\"p\":1}", "line 1: bad escape Some('q')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"cra\\u00\",\"p\":1}", "line 1: bad hex digit '\"'"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"cra\\u00zz\",\"p\":1}", "line 1: bad hex digit 'z'"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"cra\\ud800\",\"p\":1}", "line 1: bad \\u code point"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"cra\\", "line 1: bad escape None"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":-1}", "line 1: unexpected value start Some('-')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":{}}", "line 1: unexpected value start Some('{')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":}", "line 1: unexpected value start Some('}')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1 }", "line 1: expected ',' or '}' in object, got Some(' ')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1", "line 1: expected ',' or '}' in object, got None"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\" 1}", "line 1: expected ':' at byte 31, got Some(' ')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",p:1}", "line 1: expected '\"' at byte 28, got Some('p')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1,}", "line 1: expected '\"' at byte 34, got Some('}')"),
            ("[1]", "line 1: expected '{' at byte 0, got Some('[')"),
            ("x", "line 1: expected '{' at byte 0, got Some('x')"),
            ("{ \"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1}", "line 1: expected '\"' at byte 1, got Some(' ')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1}{\"seq\":1,\"t\":0,\"ev\":\"crash\",\"p\":1}", "line 1: trailing garbage after object"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":01x}", "line 1: expected ',' or '}' in object, got Some('x')"),
            ("{\"seq\":0,\"t\":0,\"ev\":\"restart\",\"p\":1}", "line 1: missing field \"incarnation\""),
            ("{\"seq\":0,\"t\":0,\"ev\":\"quorum_issued\",\"p\":1,\"epoch\":2,\"algo\":\"qs\",\"members\":\"x\"}", "line 1: field \"members\" is not an array"),
            // A syntax error anywhere in the object wins over a missing or
            // mistyped field before it.
            ("{\"t\":0,\"ev\":\"crash\",\"p\":1,\"\\u00zz\":1}", "line 1: bad hex digit 'z'"),
            // Line numbers count blank and whitespace-only lines, and `\r\n`.
            ("\n{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1}\n\n  \n{\"seq\":1,\"t\":0,\"ev\":\"crash\"}\n", "line 5: missing field \"p\""),
            ("{\"seq\":0,\"t\":0,\"ev\":\"crash\",\"p\":1}\r\n{\"seq\":1,\"t\":0,\"ev\":\"crash\",\"p\":2}x\r\n", "line 2: trailing garbage after object"),
        ];
        for (input, want) in cases {
            assert_eq!(parse_jsonl(input).unwrap_err(), *want, "input {input:?}");
        }
    }

    /// What the parser accepts beyond the writer's own output: any field
    /// order, unknown extra fields, duplicate keys (the first wins),
    /// escapes in keys, and surrounding whitespace.
    #[test]
    fn lenient_inputs_still_parse_to_the_same_records() {
        let crash = |seq, p| vec![rec(seq, 5, TraceEvent::Crash { p })];
        let cases: Vec<(&str, Vec<TraceRecord>)> = vec![
            ("{\"p\":1,\"ev\":\"crash\",\"t\":5,\"seq\":3}", crash(3, 1)),
            ("{\"seq\":3,\"t\":5,\"ev\":\"crash\",\"p\":1,\"extra\":[1,2],\"more\":\"x\"}", crash(3, 1)),
            ("{\"seq\":3,\"seq\":4,\"t\":5,\"ev\":\"crash\",\"p\":1,\"p\":2}", crash(3, 1)),
            ("{\"\\u0073eq\":3,\"t\":5,\"ev\":\"cr\\u0061sh\",\"p\":1}", crash(3, 1)),
            ("  \t{\"seq\":3,\"t\":5,\"ev\":\"crash\",\"p\":1}  ", crash(3, 1)),
            ("{\"seq\":18446744073709551615,\"t\":5,\"ev\":\"crash\",\"p\":4294967295}", crash(u64::MAX, u32::MAX)),
            (
                "{\"seq\":3,\"t\":5,\"ev\":\"fault\",\"desc\":\"héllo \\\"q\\\" \\\\ \\n\\r\\t \\u0001 ✓\"}",
                vec![rec(3, 5, TraceEvent::FaultApplied { desc: "héllo \"q\" \\ \n\r\t \u{1} ✓".into() })],
            ),
            (
                "{\"seq\":3,\"t\":5,\"ev\":\"fault\",\"desc\":\"✓ no escape é\"}",
                vec![rec(3, 5, TraceEvent::FaultApplied { desc: "✓ no escape é".into() })],
            ),
            (
                "{\"seq\":3,\"t\":5,\"ev\":\"suspicion_changed\",\"p\":1,\"suspected\":[]}",
                vec![rec(3, 5, TraceEvent::SuspicionChanged { p: 1, suspected: vec![] })],
            ),
            (
                "{\"seq\":3,\"t\":5,\"ev\":\"msg_send\",\"from\":1,\"to\":2,\"kind\":\"\"}",
                vec![rec(3, 5, TraceEvent::MsgSend { from: 1, to: 2, kind: String::new() })],
            ),
        ];
        for (input, want) in cases {
            assert_eq!(parse_jsonl(input).as_ref(), Ok(&want), "input {input:?}");
        }
    }

    #[test]
    fn quorum_bound_violation_is_flagged() {
        // f=1: Theorem 3 allows f(f+1)=2 quorums per epoch; issue 3.
        let records = vec![
            quorum(0, 100, 1, 5, "qs"),
            quorum(1, 200, 1, 5, "qs"),
            quorum(2, 300, 1, 5, "qs"),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        assert!(!report.ok());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!((v.seq, v.t, v.kind), (2, 300, ViolationKind::QuorumBound));
        assert_eq!(
            v.desc,
            "process 1 exceeded Theorem 3 bound f(f+1)=2: quorum #3 issued in epoch 5 \
             (algo qs) within the stable window"
        );
        assert_eq!(report.max_qs_quorums_per_epoch, 3);
    }

    #[test]
    fn quorum_bound_respects_stable_window() {
        // Same three quorums, but two fall before the stable window:
        // only one counts, so the bound holds.
        let records = vec![
            quorum(0, 100, 1, 5, "qs"),
            quorum(1, 200, 1, 5, "qs"),
            quorum(2, 300, 1, 5, "qs"),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 250,
            },
        );
        assert!(report.ok(), "{report}");
        assert_eq!(report.max_qs_quorums_per_epoch, 1);
        assert_eq!(report.max_quorums_per_epoch_unstable, 3);
    }

    #[test]
    fn fs_bound_is_three_f_plus_one() {
        // f=1: Theorem 9 allows 3f+1=4; the 5th violates.
        let records: Vec<TraceRecord> = (0..5).map(|i| quorum(i, 100 + i, 2, 7, "fs")).collect();
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::QuorumBound);
        assert_eq!(
            report.violations[0].desc,
            "process 2 exceeded Theorem 9 bound 3f+1=4: quorum #5 issued in epoch 7 \
             (algo fs) within the stable window"
        );
        assert_eq!(report.max_fs_quorums_per_epoch, 5);
    }

    #[test]
    fn slot_disagreement_is_flagged() {
        let records = vec![
            rec(
                0,
                10,
                TraceEvent::Executed {
                    p: 1,
                    slot: 3,
                    digest: 0xAA,
                },
            ),
            rec(
                1,
                20,
                TraceEvent::Executed {
                    p: 2,
                    slot: 3,
                    digest: 0xAA,
                },
            ),
            rec(
                2,
                30,
                TraceEvent::Executed {
                    p: 3,
                    slot: 3,
                    digest: 0xBB,
                },
            ),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::SlotAgreement);
        assert_eq!(
            report.violations[0].desc,
            "slot 3 agreement broken: at position 0 process 3 executed digest \
             0x00000000000000bb but process 1 executed 0x00000000000000aa"
        );
        assert_eq!(report.slots_checked, 1);
    }

    #[test]
    fn batched_slot_sequences_agree() {
        // Two replicas each execute the same two-request batch in slot 5:
        // multiple executed events per slot are fine when order matches.
        let records = vec![
            rec(
                0,
                10,
                TraceEvent::Executed {
                    p: 1,
                    slot: 5,
                    digest: 0xA1,
                },
            ),
            rec(
                1,
                11,
                TraceEvent::Executed {
                    p: 1,
                    slot: 5,
                    digest: 0xA2,
                },
            ),
            rec(
                2,
                20,
                TraceEvent::Executed {
                    p: 2,
                    slot: 5,
                    digest: 0xA1,
                },
            ),
            rec(
                3,
                21,
                TraceEvent::Executed {
                    p: 2,
                    slot: 5,
                    digest: 0xA2,
                },
            ),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        assert!(report.ok(), "{report}");
        assert_eq!(report.slots_checked, 1);
    }

    #[test]
    fn batched_slot_order_mismatch_is_flagged() {
        // Same requests, different order at the second replica.
        let records = vec![
            rec(
                0,
                10,
                TraceEvent::Executed {
                    p: 1,
                    slot: 5,
                    digest: 0xA1,
                },
            ),
            rec(
                1,
                11,
                TraceEvent::Executed {
                    p: 1,
                    slot: 5,
                    digest: 0xA2,
                },
            ),
            rec(
                2,
                20,
                TraceEvent::Executed {
                    p: 2,
                    slot: 5,
                    digest: 0xA2,
                },
            ),
            rec(
                3,
                21,
                TraceEvent::Executed {
                    p: 2,
                    slot: 5,
                    digest: 0xA1,
                },
            ),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 2, "{report}");
        assert!(report.violations[0].desc.contains("position 0"), "{report}");
    }

    #[test]
    fn batched_slot_extra_request_is_flagged() {
        // The second replica executes one more request in the slot than
        // the reference replica did.
        let records = vec![
            rec(
                0,
                10,
                TraceEvent::Executed {
                    p: 1,
                    slot: 5,
                    digest: 0xA1,
                },
            ),
            rec(
                1,
                20,
                TraceEvent::Executed {
                    p: 2,
                    slot: 5,
                    digest: 0xA1,
                },
            ),
            rec(
                2,
                21,
                TraceEvent::Executed {
                    p: 2,
                    slot: 5,
                    digest: 0xA9,
                },
            ),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].kind, ViolationKind::SlotAgreement);
        assert_eq!(
            report.violations[0].desc,
            "slot 5 agreement broken: process 2 executed request #1 (digest \
             0x00000000000000a9) but process 1 executed only 1 request(s) in that slot"
        );
    }

    #[test]
    fn batch_digest_disagreement_is_flagged() {
        let records = vec![
            rec(
                0,
                10,
                TraceEvent::BatchCommitted {
                    p: 1,
                    slot: 2,
                    size: 3,
                    digest: 0xC0,
                },
            ),
            rec(
                1,
                20,
                TraceEvent::BatchCommitted {
                    p: 2,
                    slot: 2,
                    size: 3,
                    digest: 0xC1,
                },
            ),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].kind, ViolationKind::SlotAgreement);
        assert_eq!(
            report.violations[0].desc,
            "slot 2 batch agreement broken: process 2 committed batch digest \
             0x00000000000000c1 but process 1 committed 0x00000000000000c0 (seq 0)"
        );
        assert_eq!(report.slots_checked, 1);
    }

    #[test]
    fn delivery_to_crashed_process_is_flagged() {
        let records = vec![
            rec(0, 10, TraceEvent::Crash { p: 2 }),
            rec(
                1,
                20,
                TraceEvent::MsgDeliver {
                    from: 1,
                    to: 2,
                    kind: "prepare".into(),
                },
            ),
            rec(
                2,
                30,
                TraceEvent::Restart {
                    p: 2,
                    incarnation: 1,
                },
            ),
            rec(
                3,
                40,
                TraceEvent::MsgDeliver {
                    from: 1,
                    to: 2,
                    kind: "prepare".into(),
                },
            ),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1, "{report}");
        let v = &report.violations[0];
        assert_eq!((v.seq, v.kind), (1, ViolationKind::CrashedDelivery));
        assert_eq!(
            v.desc,
            "message from 1 delivered to 2, which crashed at seq 0 and has not restarted"
        );
        // A timer firing at the crashed process is the same invariant.
        let v = sole_violation(&[
            records[0].clone(),
            rec(1, 20, TraceEvent::TimerFired { at: 2 }),
        ]);
        assert_eq!(v.kind, ViolationKind::CrashedDelivery);
        assert_eq!(
            v.desc,
            "timer fired at 2, which crashed at seq 0 and has not restarted"
        );
    }

    /// The single violation `records` must produce (f = 1, whole trace
    /// stable).
    fn sole_violation(records: &[TraceRecord]) -> Violation {
        let cfg = ReplayConfig {
            f: f1(),
            stable_from_micros: 0,
        };
        let mut report = analyze(records, &cfg);
        assert_eq!(report.violations.len(), 1, "{report}");
        report.violations.remove(0)
    }

    #[test]
    fn kind_checkpoint_divergence() {
        let v = sole_violation(&[
            rec(
                0,
                10,
                TraceEvent::CheckpointStable {
                    p: 1,
                    slot: 8,
                    digest: 1,
                },
            ),
            rec(
                1,
                20,
                TraceEvent::CheckpointStable {
                    p: 2,
                    slot: 8,
                    digest: 2,
                },
            ),
        ]);
        assert_eq!(v.kind, ViolationKind::CheckpointDivergence);
        assert_eq!(
            v.desc,
            "checkpoint divergence at slot 8: process 2 certified digest \
             0x0000000000000002 but process 1 certified 0x0000000000000001 (seq 0)"
        );
    }

    #[test]
    fn kind_transfer_divergence() {
        let ckpt = rec(
            0,
            10,
            TraceEvent::CheckpointStable {
                p: 1,
                slot: 8,
                digest: 1,
            },
        );
        let done = TraceEvent::StateTransferDone {
            p: 4,
            slot: 8,
            digest: 9,
        };
        // Either trace order: transfer after the checkpoint, or before it.
        let v = sole_violation(&[ckpt.clone(), rec(1, 20, done.clone())]);
        assert_eq!(v.kind, ViolationKind::TransferDivergence);
        assert_eq!(
            v.desc,
            "state transfer divergence at slot 8: process 4 recovered digest \
             0x0000000000000009 but process 1 certified 0x0000000000000001"
        );
        let v = sole_violation(&[rec(0, 5, done), ckpt]);
        assert_eq!(v.kind, ViolationKind::TransferDivergence);
        assert_eq!(
            v.desc,
            "state transfer divergence at slot 8: process 4 recovered digest \
             0x0000000000000009 but process 1 certified 0x0000000000000001"
        );
    }

    #[test]
    fn kind_gc_floor() {
        let v = sole_violation(&[
            rec(
                0,
                10,
                TraceEvent::LogGc {
                    p: 1,
                    below: 10,
                    len: 2,
                },
            ),
            rec(1, 20, TraceEvent::Decided { p: 1, slot: 4 }),
        ]);
        assert_eq!(v.kind, ViolationKind::GcFloor);
        assert_eq!(
            v.desc,
            "process 1 decided references garbage-collected slot 4 below its GC floor 10"
        );
        // The offending event's own name is the verb.
        let gc = rec(
            0,
            10,
            TraceEvent::LogGc {
                p: 1,
                below: 10,
                len: 2,
            },
        );
        for (event, what) in [
            (
                TraceEvent::Executed {
                    p: 1,
                    slot: 4,
                    digest: 1,
                },
                "executed",
            ),
            (
                TraceEvent::BatchCommitted {
                    p: 1,
                    slot: 4,
                    size: 1,
                    digest: 1,
                },
                "batch_committed",
            ),
        ] {
            let v = sole_violation(&[gc.clone(), rec(1, 20, event)]);
            assert_eq!(v.kind, ViolationKind::GcFloor);
            assert_eq!(
                v.desc,
                format!(
                    "process 1 {what} references garbage-collected slot 4 below its GC floor 10"
                )
            );
        }
    }

    #[test]
    fn clean_trace_reports_ok_display() {
        let report = analyze(
            &[quorum(0, 10, 1, 1, "qs")],
            &ReplayConfig {
                f: f1(),
                stable_from_micros: 0,
            },
        );
        let text = format!("{report}");
        assert!(text.contains("verdict: OK"), "{text}");
    }
}
