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

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::event::{TraceEvent, TraceRecord};

// ---------------------------------------------------------------------------
// JSONL parsing
// ---------------------------------------------------------------------------

/// A parsed flat JSON value — exactly the subset the writer emits. A
/// string borrows from the input line unless it contains an escape.
enum Val<'a> {
    U64(u64),
    Str(Cow<'a, str>),
    Arr(Vec<u32>),
}

/// One `"key":value` pair of a record, in input order.
type Field<'a> = (Cow<'a, str>, Val<'a>);

struct Cursor<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| format!("number overflow at byte {start}"))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected digit at byte {start}"));
        }
        Ok(v)
    }

    fn parse_string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        // Up to the first escape the string is a span of the input (both
        // ends sit next to an ASCII byte, so on character boundaries).
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(Cow::Borrowed(&self.text[start..self.pos - 1])),
                Some(b'\\') => break,
                Some(_) => {}
            }
        }
        self.pos -= 1;
        let mut s = String::from(&self.text[start..self.pos]);
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(Cow::Owned(s)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {:?}", d as char))?;
                        }
                        s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|b| b as char)));
                    }
                },
                Some(b) => {
                    // The writer only emits ASCII unescaped below 0x80;
                    // pass multi-byte UTF-8 through byte-wise.
                    if b < 0x80 {
                        s.push(b as char);
                    } else {
                        let rest = &self.bytes[self.pos - 1..];
                        let ch = std::str::from_utf8(rest)
                            .ok()
                            .and_then(|t| t.chars().next())
                            .ok_or("invalid UTF-8 in string")?;
                        s.push(ch);
                        self.pos += ch.len_utf8() - 1;
                    }
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Val<'a>, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut arr = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(arr));
                }
                loop {
                    let v = self.parse_u64()?;
                    arr.push(
                        u32::try_from(v).map_err(|_| "array element exceeds u32".to_string())?,
                    );
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Val::Arr(arr)),
                        other => {
                            return Err(format!(
                                "expected ',' or ']' in array, got {:?}",
                                other.map(|b| b as char)
                            ));
                        }
                    }
                }
            }
            Some(b'0'..=b'9') => Ok(Val::U64(self.parse_u64()?)),
            other => Err(format!(
                "unexpected value start {:?}",
                other.map(|b| b as char)
            )),
        }
    }

    /// Appends the object's fields to `fields` (the caller's scratch
    /// vector, reused from line to line).
    fn parse_object(&mut self, fields: &mut Vec<Field<'a>>) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let val = self.parse_value()?;
            fields.push((key, val));
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in object, got {:?}",
                        other.map(|b| b as char)
                    ));
                }
            }
        }
    }
}

fn field<'f, 'a>(fields: &'f [Field<'a>], key: &str, line: usize) -> Result<&'f Val<'a>, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("line {line}: missing field \"{key}\""))
}

fn u64_field(fields: &[Field<'_>], key: &str, line: usize) -> Result<u64, String> {
    match field(fields, key, line)? {
        Val::U64(v) => Ok(*v),
        _ => Err(format!("line {line}: field \"{key}\" is not a number")),
    }
}

fn u32_field(fields: &[Field<'_>], key: &str, line: usize) -> Result<u32, String> {
    match field(fields, key, line)? {
        Val::U64(v) => u32::try_from(*v).ok(),
        _ => None,
    }
    .ok_or_else(|| format!("line {line}: field \"{key}\" is not a u32"))
}

fn str_ref<'f>(fields: &'f [Field<'_>], key: &str, line: usize) -> Result<&'f str, String> {
    match field(fields, key, line)? {
        Val::Str(s) => Ok(s),
        _ => Err(format!("line {line}: field \"{key}\" is not a string")),
    }
}

fn str_field(fields: &[Field<'_>], key: &str, line: usize) -> Result<String, String> {
    str_ref(fields, key, line).map(str::to_string)
}

fn arr_field(fields: &[Field<'_>], key: &str, line: usize) -> Result<Vec<u32>, String> {
    match field(fields, key, line)? {
        Val::Arr(a) => Ok(a.clone()),
        _ => Err(format!("line {line}: field \"{key}\" is not an array")),
    }
}

/// Parses a JSONL trace export back into records.
///
/// Accepts exactly the subset of JSON the writer emits: one flat object
/// per line; unsigned-integer, string and array-of-unsigned values. Blank
/// lines are skipped. Unknown `ev` names are an error (the trace format is
/// versioned by this crate, not forward-compatible).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    let mut fields: Vec<Field<'_>> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut cur = Cursor {
            text: line,
            bytes: line.as_bytes(),
            pos: 0,
        };
        fields.clear();
        cur.parse_object(&mut fields)
            .map_err(|e| format!("line {line_no}: {e}"))?;
        if cur.pos != cur.bytes.len() {
            return Err(format!("line {line_no}: trailing garbage after object"));
        }
        let seq = u64_field(&fields, "seq", line_no)?;
        let t = u64_field(&fields, "t", line_no)?;
        let event = match str_ref(&fields, "ev", line_no)? {
            "msg_send" => TraceEvent::MsgSend {
                from: u32_field(&fields, "from", line_no)?,
                to: u32_field(&fields, "to", line_no)?,
                kind: str_field(&fields, "kind", line_no)?,
            },
            "msg_deliver" => TraceEvent::MsgDeliver {
                from: u32_field(&fields, "from", line_no)?,
                to: u32_field(&fields, "to", line_no)?,
                kind: str_field(&fields, "kind", line_no)?,
            },
            "msg_drop" => TraceEvent::MsgDrop {
                from: u32_field(&fields, "from", line_no)?,
                to: u32_field(&fields, "to", line_no)?,
                reason: str_field(&fields, "reason", line_no)?,
            },
            "msg_dup" => TraceEvent::MsgDuplicated {
                from: u32_field(&fields, "from", line_no)?,
                to: u32_field(&fields, "to", line_no)?,
            },
            "msg_reorder" => TraceEvent::MsgReordered {
                from: u32_field(&fields, "from", line_no)?,
                to: u32_field(&fields, "to", line_no)?,
            },
            "timer_fired" => TraceEvent::TimerFired {
                at: u32_field(&fields, "at", line_no)?,
            },
            "timer_stale" => TraceEvent::TimerStale {
                at: u32_field(&fields, "at", line_no)?,
            },
            "buffered_paused" => TraceEvent::BufferedPaused {
                at: u32_field(&fields, "at", line_no)?,
            },
            "crash" => TraceEvent::Crash {
                p: u32_field(&fields, "p", line_no)?,
            },
            "restart" => TraceEvent::Restart {
                p: u32_field(&fields, "p", line_no)?,
                incarnation: u32_field(&fields, "incarnation", line_no)?,
            },
            "pause" => TraceEvent::Pause {
                p: u32_field(&fields, "p", line_no)?,
            },
            "resume" => TraceEvent::Resume {
                p: u32_field(&fields, "p", line_no)?,
            },
            "fault" => TraceEvent::FaultApplied {
                desc: str_field(&fields, "desc", line_no)?,
            },
            "epoch_entered" => TraceEvent::EpochEntered {
                p: u32_field(&fields, "p", line_no)?,
                epoch: u64_field(&fields, "epoch", line_no)?,
                algo: str_field(&fields, "algo", line_no)?,
            },
            "quorum_issued" => TraceEvent::QuorumIssued {
                p: u32_field(&fields, "p", line_no)?,
                epoch: u64_field(&fields, "epoch", line_no)?,
                algo: str_field(&fields, "algo", line_no)?,
                members: arr_field(&fields, "members", line_no)?,
            },
            "suspicion_changed" => TraceEvent::SuspicionChanged {
                p: u32_field(&fields, "p", line_no)?,
                suspected: arr_field(&fields, "suspected", line_no)?,
            },
            "detection_raised" => TraceEvent::DetectionRaised {
                p: u32_field(&fields, "p", line_no)?,
                against: u32_field(&fields, "against", line_no)?,
            },
            "view_change_start" => TraceEvent::ViewChangeStart {
                p: u32_field(&fields, "p", line_no)?,
                target: u64_field(&fields, "target", line_no)?,
            },
            "view_installed" => TraceEvent::ViewInstalled {
                p: u32_field(&fields, "p", line_no)?,
                view: u64_field(&fields, "view", line_no)?,
            },
            "decided" => TraceEvent::Decided {
                p: u32_field(&fields, "p", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
            },
            "batch_proposed" => TraceEvent::BatchProposed {
                p: u32_field(&fields, "p", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
                size: u64_field(&fields, "size", line_no)?,
            },
            "batch_committed" => TraceEvent::BatchCommitted {
                p: u32_field(&fields, "p", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
                size: u64_field(&fields, "size", line_no)?,
                digest: u64_field(&fields, "digest", line_no)?,
            },
            "executed" => TraceEvent::Executed {
                p: u32_field(&fields, "p", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
                digest: u64_field(&fields, "digest", line_no)?,
            },
            "client_commit" => TraceEvent::ClientCommit {
                client: u32_field(&fields, "client", line_no)?,
                op: u64_field(&fields, "op", line_no)?,
                latency_us: u64_field(&fields, "latency_us", line_no)?,
            },
            "client_retry" => TraceEvent::ClientRetry {
                client: u32_field(&fields, "client", line_no)?,
                op: u64_field(&fields, "op", line_no)?,
                interval_us: u64_field(&fields, "interval_us", line_no)?,
            },
            "checkpoint_stable" => TraceEvent::CheckpointStable {
                p: u32_field(&fields, "p", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
                digest: u64_field(&fields, "digest", line_no)?,
            },
            "log_gc" => TraceEvent::LogGc {
                p: u32_field(&fields, "p", line_no)?,
                below: u64_field(&fields, "below", line_no)?,
                len: u64_field(&fields, "len", line_no)?,
            },
            "state_transfer_start" => TraceEvent::StateTransferStart {
                p: u32_field(&fields, "p", line_no)?,
                from: u64_field(&fields, "from", line_no)?,
                to: u64_field(&fields, "to", line_no)?,
                mode: str_field(&fields, "mode", line_no)?,
            },
            "state_transfer_done" => TraceEvent::StateTransferDone {
                p: u32_field(&fields, "p", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
                digest: u64_field(&fields, "digest", line_no)?,
            },
            "sync_chunk_rejected" => TraceEvent::SyncChunkRejected {
                p: u32_field(&fields, "p", line_no)?,
                from: u32_field(&fields, "from", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
            },
            "batch_admitted" => TraceEvent::BatchAdmitted {
                p: u32_field(&fields, "p", line_no)?,
                client: u32_field(&fields, "client", line_no)?,
                op: u64_field(&fields, "op", line_no)?,
            },
            "req_proposed" => TraceEvent::ReqProposed {
                p: u32_field(&fields, "p", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
                client: u32_field(&fields, "client", line_no)?,
                op: u64_field(&fields, "op", line_no)?,
            },
            "commit_vote" => TraceEvent::CommitVote {
                p: u32_field(&fields, "p", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
                from: u32_field(&fields, "from", line_no)?,
                have: u64_field(&fields, "have", line_no)?,
            },
            "reply_sent" => TraceEvent::ReplySent {
                p: u32_field(&fields, "p", line_no)?,
                client: u32_field(&fields, "client", line_no)?,
                op: u64_field(&fields, "op", line_no)?,
                slot: u64_field(&fields, "slot", line_no)?,
            },
            other => return Err(format!("line {line_no}: unknown event \"{other}\"")),
        };
        records.push(TraceRecord { seq, t, event });
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Configuration for [`analyze`].
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// The fault threshold the run was configured with (`n = 3f + 1`).
    pub f: u32,
    /// Quorum-bound checks only count `quorum_issued` events at
    /// `t ≥ stable_from_micros` — the theorems assume an accurate failure
    /// detector, which only holds once fault injection has ceased. Use `0`
    /// to check the entire trace.
    pub stable_from_micros: u64,
}

impl ReplayConfig {
    /// Theorem 3 bound for Algorithm 1: `f(f+1)` quorums per epoch.
    pub fn qs_bound(&self) -> u64 {
        u64::from(self.f) * (u64::from(self.f) + 1)
    }

    /// Theorem 9 bound for Algorithm 2: `3f+1` quorums per epoch.
    pub fn fs_bound(&self) -> u64 {
        3 * u64::from(self.f) + 1
    }
}

/// One invariant violation found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Sequence number of the record that completed the violation.
    pub seq: u64,
    /// Its simulated timestamp (microseconds).
    pub t: u64,
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

    let check_floor =
        |report: &mut ReplayReport, gc_floor: &HashMap<u32, u64>, r: &TraceRecord, p: u32, slot: u64, what: &str| {
            if let Some(floor) = gc_floor.get(&p) {
                if slot < *floor {
                    report.violations.push(Violation {
                        seq: r.seq,
                        t: r.t,
                        desc: format!(
                            "process {p} {what} references garbage-collected slot {slot} \
                             below its GC floor {floor}"
                        ),
                    });
                }
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
                    let bound = if is_fs { cfg.fs_bound() } else { cfg.qs_bound() };
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
                        report.violations.push(Violation {
                            seq: r.seq,
                            t: r.t,
                            desc: format!(
                                "process {p} exceeded {thm}: quorum #{c} issued in epoch {epoch} \
                                 (algo {algo}) within the stable window"
                            ),
                        });
                    }
                }
            }
            TraceEvent::Executed { p, slot, digest } => {
                check_floor(&mut report, &gc_floor, r, *p, *slot, "executed");
                let (ref_p, seq) = slot_exec.entry(*slot).or_insert_with(|| (*p, Vec::new()));
                let cursor = exec_cursor.entry((*p, *slot)).or_insert(0);
                if *ref_p == *p {
                    seq.push(*digest);
                } else if *cursor >= seq.len() {
                    report.violations.push(Violation {
                        seq: r.seq,
                        t: r.t,
                        desc: format!(
                            "slot {slot} agreement broken: process {p} executed request \
                             #{cursor} (digest {digest:#018x}) but process {ref_p} executed \
                             only {} request(s) in that slot",
                            seq.len()
                        ),
                    });
                } else if seq[*cursor] != *digest {
                    let d0 = seq[*cursor];
                    report.violations.push(Violation {
                        seq: r.seq,
                        t: r.t,
                        desc: format!(
                            "slot {slot} agreement broken: at position {cursor} process {p} \
                             executed digest {digest:#018x} but process {ref_p} executed \
                             {d0:#018x}"
                        ),
                    });
                }
                *cursor += 1;
            }
            TraceEvent::Decided { p, slot } => {
                check_floor(&mut report, &gc_floor, r, *p, *slot, "decided");
            }
            TraceEvent::CheckpointStable { p, slot, digest } => {
                match ckpt_digest.get(slot) {
                    None => {
                        ckpt_digest.insert(*slot, (*digest, *p, r.seq));
                    }
                    Some((d0, p0, seq0)) if d0 != digest => {
                        report.violations.push(Violation {
                            seq: r.seq,
                            t: r.t,
                            desc: format!(
                                "checkpoint divergence at slot {slot}: process {p} certified \
                                 digest {digest:#018x} but process {p0} certified {d0:#018x} \
                                 (seq {seq0})"
                            ),
                        });
                    }
                    Some(_) => {}
                }
                // A transfer completed at this slot earlier in the trace
                // must have recomputed this same digest.
                if let Some(done) = transfer_done.get(slot) {
                    for (d, dp) in done {
                        if d != digest {
                            report.violations.push(Violation {
                                seq: r.seq,
                                t: r.t,
                                desc: format!(
                                    "state transfer divergence at slot {slot}: process {dp} \
                                     recovered digest {d:#018x} but process {p} certified \
                                     {digest:#018x}"
                                ),
                            });
                        }
                    }
                }
            }
            TraceEvent::StateTransferDone { p, slot, digest } => {
                if let Some((d0, p0, _)) = ckpt_digest.get(slot) {
                    if d0 != digest {
                        report.violations.push(Violation {
                            seq: r.seq,
                            t: r.t,
                            desc: format!(
                                "state transfer divergence at slot {slot}: process {p} \
                                 recovered digest {digest:#018x} but process {p0} certified \
                                 {d0:#018x}"
                            ),
                        });
                    }
                }
                transfer_done.entry(*slot).or_default().push((*digest, *p));
            }
            TraceEvent::LogGc { p, below, .. } => {
                let floor = gc_floor.entry(*p).or_insert(0);
                *floor = (*floor).max(*below);
            }
            TraceEvent::BatchCommitted { p, slot, digest, .. } => {
                check_floor(&mut report, &gc_floor, r, *p, *slot, "batch_committed");
                match slot_batch_digest.get(slot) {
                    None => {
                        slot_batch_digest.insert(*slot, (*digest, *p, r.seq));
                    }
                    Some((d0, p0, seq0)) if d0 != digest => {
                        report.violations.push(Violation {
                            seq: r.seq,
                            t: r.t,
                            desc: format!(
                                "slot {slot} batch agreement broken: process {p} committed \
                                 batch digest {digest:#018x} but process {p0} committed \
                                 {d0:#018x} (seq {seq0})"
                            ),
                        });
                    }
                    Some(_) => {}
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
                    report.violations.push(Violation {
                        seq: r.seq,
                        t: r.t,
                        desc: format!(
                            "message from {from} delivered to {to}, which crashed at seq \
                             {crash_seq} and has not restarted"
                        ),
                    });
                }
            }
            TraceEvent::TimerFired { at } => {
                if let Some(crash_seq) = down.get(at) {
                    report.violations.push(Violation {
                        seq: r.seq,
                        t: r.t,
                        desc: format!(
                            "timer fired at {at}, which crashed at seq {crash_seq} and has not \
                             restarted"
                        ),
                    });
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
    fn roundtrip_every_variant() {
        let events = vec![
            TraceEvent::MsgSend {
                from: 1,
                to: 2,
                kind: "prepare".into(),
            },
            TraceEvent::MsgDeliver {
                from: 2,
                to: 1,
                kind: String::new(),
            },
            TraceEvent::MsgDrop {
                from: 1,
                to: 3,
                reason: "link".into(),
            },
            TraceEvent::MsgDuplicated { from: 1, to: 2 },
            TraceEvent::MsgReordered { from: 2, to: 3 },
            TraceEvent::TimerFired { at: 1 },
            TraceEvent::TimerStale { at: 2 },
            TraceEvent::BufferedPaused { at: 3 },
            TraceEvent::Crash { p: 4 },
            TraceEvent::Restart {
                p: 4,
                incarnation: 2,
            },
            TraceEvent::Pause { p: 1 },
            TraceEvent::Resume { p: 1 },
            TraceEvent::FaultApplied {
                desc: "Crash { p: \"4\" }\n".into(),
            },
            TraceEvent::EpochEntered {
                p: 1,
                epoch: 3,
                algo: "qs".into(),
            },
            TraceEvent::QuorumIssued {
                p: 1,
                epoch: 3,
                algo: "fs".into(),
                members: vec![1, 2, 4],
            },
            TraceEvent::SuspicionChanged {
                p: 2,
                suspected: vec![],
            },
            TraceEvent::DetectionRaised { p: 2, against: 3 },
            TraceEvent::ViewChangeStart { p: 1, target: 5 },
            TraceEvent::ViewInstalled { p: 1, view: 5 },
            TraceEvent::Decided { p: 1, slot: 9 },
            TraceEvent::BatchProposed {
                p: 1,
                slot: 9,
                size: 4,
            },
            TraceEvent::BatchCommitted {
                p: 1,
                slot: 9,
                size: 4,
                digest: 77,
            },
            TraceEvent::Executed {
                p: 1,
                slot: 9,
                digest: u64::MAX,
            },
            TraceEvent::ClientCommit {
                client: 10,
                op: 7,
                latency_us: 1234,
            },
            TraceEvent::ClientRetry {
                client: 10,
                op: 8,
                interval_us: 4000,
            },
            TraceEvent::CheckpointStable {
                p: 2,
                slot: 750,
                digest: 0xFEED,
            },
            TraceEvent::LogGc {
                p: 2,
                below: 750,
                len: 12,
            },
            TraceEvent::StateTransferStart {
                p: 4,
                from: 250,
                to: 9_800,
                mode: "compact".into(),
            },
            TraceEvent::StateTransferDone {
                p: 4,
                slot: 9_800,
                digest: 0xFEED,
            },
            TraceEvent::SyncChunkRejected {
                p: 4,
                from: 1,
                slot: 300,
            },
            TraceEvent::BatchAdmitted {
                p: 0,
                client: 10,
                op: 7,
            },
            TraceEvent::ReqProposed {
                p: 0,
                slot: 9,
                client: 10,
                op: 7,
            },
            TraceEvent::CommitVote {
                p: 0,
                slot: 9,
                from: 2,
                have: 3,
            },
            TraceEvent::ReplySent {
                p: 0,
                client: 10,
                op: 7,
                slot: 9,
            },
        ];
        let records: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| rec(i as u64, i as u64 * 10, event))
            .collect();
        let mut jsonl = String::new();
        for r in &records {
            r.write_jsonl(&mut jsonl);
        }
        let parsed = parse_jsonl(&jsonl).expect("roundtrip parse");
        assert_eq!(parsed, records);
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
                f: 1,
                stable_from_micros: 0,
            },
        );
        assert!(!report.ok());
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].desc.contains("Theorem 3"), "{report}");
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
                f: 1,
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
        let records: Vec<TraceRecord> =
            (0..5).map(|i| quorum(i, 100 + i, 2, 7, "fs")).collect();
        let report = analyze(
            &records,
            &ReplayConfig {
                f: 1,
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].desc.contains("Theorem 9"), "{report}");
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
                f: 1,
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].desc.contains("slot 3"), "{report}");
        assert_eq!(report.slots_checked, 1);
    }

    #[test]
    fn batched_slot_sequences_agree() {
        // Two replicas each execute the same two-request batch in slot 5:
        // multiple executed events per slot are fine when order matches.
        let records = vec![
            rec(0, 10, TraceEvent::Executed { p: 1, slot: 5, digest: 0xA1 }),
            rec(1, 11, TraceEvent::Executed { p: 1, slot: 5, digest: 0xA2 }),
            rec(2, 20, TraceEvent::Executed { p: 2, slot: 5, digest: 0xA1 }),
            rec(3, 21, TraceEvent::Executed { p: 2, slot: 5, digest: 0xA2 }),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: 1,
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
            rec(0, 10, TraceEvent::Executed { p: 1, slot: 5, digest: 0xA1 }),
            rec(1, 11, TraceEvent::Executed { p: 1, slot: 5, digest: 0xA2 }),
            rec(2, 20, TraceEvent::Executed { p: 2, slot: 5, digest: 0xA2 }),
            rec(3, 21, TraceEvent::Executed { p: 2, slot: 5, digest: 0xA1 }),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: 1,
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
            rec(0, 10, TraceEvent::Executed { p: 1, slot: 5, digest: 0xA1 }),
            rec(1, 20, TraceEvent::Executed { p: 2, slot: 5, digest: 0xA1 }),
            rec(2, 21, TraceEvent::Executed { p: 2, slot: 5, digest: 0xA9 }),
        ];
        let report = analyze(
            &records,
            &ReplayConfig {
                f: 1,
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(report.violations[0].desc.contains("only 1 request"), "{report}");
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
                f: 1,
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(
            report.violations[0].desc.contains("batch agreement"),
            "{report}"
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
                f: 1,
                stable_from_micros: 0,
            },
        );
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].seq, 1);
    }

    #[test]
    fn clean_trace_reports_ok_display() {
        let report = analyze(
            &[quorum(0, 10, 1, 1, "qs")],
            &ReplayConfig {
                f: 1,
                stable_from_micros: 0,
            },
        );
        let text = format!("{report}");
        assert!(text.contains("verdict: OK"), "{text}");
    }
}
