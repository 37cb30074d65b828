//! Typed trace events and their JSONL encoding — the trace format's one
//! owner.
//!
//! The encoding is hand-rolled (the build environment has no serde): each
//! record is one flat JSON object per line with a **fixed field order** —
//! `seq`, `t`, `ev`, then the event's own fields in declaration order — so
//! two identical runs export byte-identical traces. Values are unsigned
//! integers, strings, and arrays of unsigned integers. The vocabulary is
//! declared twice and no more: the [`TraceEvent`] enum (plain Rust, for
//! rustdoc and the linter) and the `trace_events!` table below it, from
//! which the event names, the writer and the parser are generated.

use std::fmt::Write as _;

use crate::json::{member, push_json_str, Cursor, Member, Val};

/// One structured event, without its timestamp (see [`TraceRecord`]).
///
/// Process ids are plain `u32`s (`qsel_types::ProcessId.0`); times and
/// durations are simulated microseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An actor handed a message to the network.
    MsgSend {
        /// Sender id.
        from: u32,
        /// Destination id.
        to: u32,
        /// Message kind, from the simulation's classifier (empty if none).
        kind: String,
    },
    /// The network delivered a message to a live actor.
    MsgDeliver {
        /// Sender id.
        from: u32,
        /// Destination id.
        to: u32,
        /// Message kind, from the simulation's classifier (empty if none).
        kind: String,
    },
    /// The network dropped a message (link fault or crashed receiver).
    MsgDrop {
        /// Sender id.
        from: u32,
        /// Destination id.
        to: u32,
        /// Why the message died ("link", "crashed", …).
        reason: String,
    },
    /// A link fault duplicated a message.
    MsgDuplicated {
        /// Sender id.
        from: u32,
        /// Destination id.
        to: u32,
    },
    /// A link fault held a message back past later traffic.
    MsgReordered {
        /// Sender id.
        from: u32,
        /// Destination id.
        to: u32,
    },
    /// A timer callback fired.
    TimerFired {
        /// The process whose timer fired.
        at: u32,
    },
    /// A timer from a previous incarnation was discarded.
    TimerStale {
        /// The restarted process.
        at: u32,
    },
    /// An event was buffered because its target is paused (gray failure).
    BufferedPaused {
        /// The paused process.
        at: u32,
    },
    /// A process crashed (benign crash failure).
    Crash {
        /// The crashed process.
        p: u32,
    },
    /// A crashed process restarted (crash-recovery).
    Restart {
        /// The restarted process.
        p: u32,
        /// Its new incarnation number.
        incarnation: u32,
    },
    /// A process was paused (gray failure).
    Pause {
        /// The paused process.
        p: u32,
    },
    /// A paused process resumed.
    Resume {
        /// The resumed process.
        p: u32,
    },
    /// A scripted fault-plan action was applied.
    FaultApplied {
        /// Debug rendering of the applied `FaultEvent`.
        desc: String,
    },
    /// A selection module entered a new epoch.
    EpochEntered {
        /// The process whose module advanced.
        p: u32,
        /// The epoch entered.
        epoch: u64,
        /// `"qs"` (Algorithm 1) or `"fs"` (Algorithm 2).
        algo: String,
    },
    /// A selection module issued a `⟨QUORUM⟩` event — the quantity bounded
    /// per epoch by Theorems 3 (`f(f+1)`) and 9 (`3f+1`).
    QuorumIssued {
        /// The issuing process.
        p: u32,
        /// The epoch the quorum was computed for.
        epoch: u64,
        /// `"qs"` (Algorithm 1) or `"fs"` (Algorithm 2).
        algo: String,
        /// The quorum's member ids, ascending.
        members: Vec<u32>,
    },
    /// A failure detector's suspicion set changed.
    SuspicionChanged {
        /// The detecting process.
        p: u32,
        /// The complete new suspicion set, ascending.
        suspected: Vec<u32>,
    },
    /// A `⟨DETECTED⟩` event — proof of a commission failure.
    DetectionRaised {
        /// The detecting process.
        p: u32,
        /// The process proven faulty.
        against: u32,
    },
    /// A replica initiated or joined a view change.
    ViewChangeStart {
        /// The replica.
        p: u32,
        /// The targeted view.
        target: u64,
    },
    /// A replica installed a view (processed its NEW-VIEW).
    ViewInstalled {
        /// The replica.
        p: u32,
        /// The installed view.
        view: u64,
    },
    /// A replica decided a slot (commit certificate complete).
    Decided {
        /// The replica.
        p: u32,
        /// The decided slot.
        slot: u64,
    },
    /// A leader closed a batch and proposed it at a slot. Emitted only
    /// under a non-passthrough `BatchPolicy`, so default-policy traces are
    /// byte-identical to the unbatched protocol's.
    BatchProposed {
        /// The proposing leader.
        p: u32,
        /// The slot the batch occupies.
        slot: u64,
        /// Requests in the batch.
        size: u64,
    },
    /// A replica decided a batched slot. Emitted alongside `Decided` under
    /// a non-passthrough `BatchPolicy`; carries the batch identity the
    /// replay analyzer compares across replicas.
    BatchCommitted {
        /// The replica.
        p: u32,
        /// The decided slot.
        slot: u64,
        /// Requests in the decided batch.
        size: u64,
        /// First 8 bytes of the batch's SHA-256 digest.
        digest: u64,
    },
    /// A replica executed the request at a slot.
    Executed {
        /// The replica.
        p: u32,
        /// The executed slot.
        slot: u64,
        /// First 8 bytes of the executed request's SHA-256 digest — the
        /// identity the per-slot agreement check compares across replicas.
        digest: u64,
    },
    /// A client accepted a result (`f+1` matching replies).
    ClientCommit {
        /// The client id.
        client: u32,
        /// The completed operation number.
        op: u64,
        /// Commit latency in simulated microseconds.
        latency_us: u64,
    },
    /// A client retransmitted its in-flight request.
    ClientRetry {
        /// The client id.
        client: u32,
        /// The retried operation number.
        op: u64,
        /// The back-off interval in force, in simulated microseconds.
        interval_us: u64,
    },
    /// A replica collected `f+1` matching checkpoint signatures. The
    /// digest is compared across replicas: two stable checkpoints at the
    /// same slot must certify the same payload.
    CheckpointStable {
        /// The replica.
        p: u32,
        /// The checkpointed executed-prefix length.
        slot: u64,
        /// First 8 bytes of the certified payload's SHA-256 digest.
        digest: u64,
    },
    /// A replica garbage-collected its log below a stable checkpoint.
    LogGc {
        /// The replica.
        p: u32,
        /// The GC bound: every live slot below it was compacted.
        below: u64,
        /// Live log length after collection (the bounded quantity).
        len: u64,
    },
    /// A recovering replica chose a donor and began fetching.
    StateTransferStart {
        /// The recovering replica.
        p: u32,
        /// Its executed-prefix length at the start.
        from: u64,
        /// The frontier it is catching up to.
        to: u64,
        /// `"compact"` (MMR-authenticated batches), `"jump"` (checkpoint
        /// install), or `"replay"` (certified entries, no checkpoint).
        mode: String,
    },
    /// A recovering replica finished state transfer.
    StateTransferDone {
        /// The recovered replica.
        p: u32,
        /// Its executed-prefix length at completion.
        slot: u64,
        /// First 8 bytes of its *recomputed* checkpoint-payload digest at
        /// `slot` — must match any `CheckpointStable` digest at that slot.
        digest: u64,
    },
    /// A recovering replica rejected a transfer chunk (failed inclusion
    /// proof, wrong range, or non-contiguous slots) and switched donors.
    SyncChunkRejected {
        /// The recovering replica.
        p: u32,
        /// The donor whose chunk failed verification.
        from: u32,
        /// The first slot the rejected chunk claimed to cover.
        slot: u64,
    },
    /// The leader admitted a client request into its proposal path (the
    /// batch-wait clock starts here: passthrough proposes immediately, a
    /// batching leader parks the request in `pending_batch`).
    BatchAdmitted {
        /// The admitting leader.
        p: u32,
        /// The requesting client id.
        client: u32,
        /// The client's operation number.
        op: u64,
    },
    /// The leader proposed a specific request at a slot (one event per
    /// request in the batch — the request-level twin of `batch_proposed`,
    /// emitted in every mode including passthrough).
    ReqProposed {
        /// The proposing leader.
        p: u32,
        /// The slot the request's batch occupies.
        slot: u64,
        /// The requesting client id.
        client: u32,
        /// The client's operation number.
        op: u64,
    },
    /// A replica recorded a previously-unseen COMMIT vote for an
    /// undecided slot — the raw material of quorum-formation timing (the
    /// gap between the first and last vote is the straggler gap).
    CommitVote {
        /// The replica recording the vote.
        p: u32,
        /// The voted slot.
        slot: u64,
        /// The voting replica.
        from: u32,
        /// Distinct votes held for the slot after recording this one.
        have: u64,
    },
    /// A replica sent a client its reply for an executed request (emitted
    /// at execution time, alongside `executed`).
    ReplySent {
        /// The replying replica.
        p: u32,
        /// The destination client id.
        client: u32,
        /// The client's operation number.
        op: u64,
        /// The slot the request executed at.
        slot: u64,
    },
}

/// The trace vocabulary's one definition besides the `enum` itself:
/// `Variant "ev_name" { field, … }` per event, fields in wire order (each
/// JSON key is the Rust field's name). [`TraceEvent::name`], the JSONL
/// writer and the JSONL parser are generated from it, and the compiler
/// checks it against the enum: a variant missing here fails the exhaustive
/// `match`, a missing or misspelt field fails the pattern and the struct
/// expression, a duplicate name is an unreachable-pattern error.
macro_rules! trace_events {
    ($($variant:ident $name:literal { $($field:ident),* })*) => {
        impl TraceEvent {
            /// The stable `ev` name used in the JSONL encoding.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }

            /// Appends the event's own fields, in table order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(Field::write($field, out, stringify!($field));)*
                    })*
                }
            }

            /// Builds the event called `name` from a parsed record's members.
            #[deny(unreachable_patterns)]
            fn read(name: &str, members: &[Member<'_>], line: usize) -> Result<Self, String> {
                Ok(match name {
                    $($name => TraceEvent::$variant {
                        $($field: Field::read(members, stringify!($field), line)?,)*
                    },)*
                    other => return Err(format!("line {line}: unknown event \"{other}\"")),
                })
            }
        }

        /// One event per table row, every field at its type's sample value.
        #[cfg(test)]
        pub(crate) fn samples() -> Vec<TraceEvent> {
            vec![$(TraceEvent::$variant { $($field: Field::sample()),* }),*]
        }
    };
}

trace_events! {
    MsgSend "msg_send" { from, to, kind }
    MsgDeliver "msg_deliver" { from, to, kind }
    MsgDrop "msg_drop" { from, to, reason }
    MsgDuplicated "msg_dup" { from, to }
    MsgReordered "msg_reorder" { from, to }
    TimerFired "timer_fired" { at }
    TimerStale "timer_stale" { at }
    BufferedPaused "buffered_paused" { at }
    Crash "crash" { p }
    Restart "restart" { p, incarnation }
    Pause "pause" { p }
    Resume "resume" { p }
    FaultApplied "fault" { desc }
    EpochEntered "epoch_entered" { p, epoch, algo }
    QuorumIssued "quorum_issued" { p, epoch, algo, members }
    SuspicionChanged "suspicion_changed" { p, suspected }
    DetectionRaised "detection_raised" { p, against }
    ViewChangeStart "view_change_start" { p, target }
    ViewInstalled "view_installed" { p, view }
    Decided "decided" { p, slot }
    BatchProposed "batch_proposed" { p, slot, size }
    BatchCommitted "batch_committed" { p, slot, size, digest }
    Executed "executed" { p, slot, digest }
    ClientCommit "client_commit" { client, op, latency_us }
    ClientRetry "client_retry" { client, op, interval_us }
    CheckpointStable "checkpoint_stable" { p, slot, digest }
    LogGc "log_gc" { p, below, len }
    StateTransferStart "state_transfer_start" { p, from, to, mode }
    StateTransferDone "state_transfer_done" { p, slot, digest }
    SyncChunkRejected "sync_chunk_rejected" { p, from, slot }
    BatchAdmitted "batch_admitted" { p, client, op }
    ReqProposed "req_proposed" { p, slot, client, op }
    CommitVote "commit_vote" { p, slot, from, have }
    ReplySent "reply_sent" { p, client, op, slot }
}

/// One field type of the trace format: how it is written after its key and
/// how it is read back, type-checked, from a parsed record.
trait Field: Sized {
    fn write(&self, out: &mut String, key: &str);
    fn read(members: &[Member<'_>], key: &str, line: usize) -> Result<Self, String>;
    #[cfg(test)]
    fn sample() -> Self;
}

impl Field for u64 {
    fn write(&self, out: &mut String, key: &str) {
        let _ = write!(out, ",\"{key}\":{self}");
    }

    fn read(members: &[Member<'_>], key: &str, line: usize) -> Result<Self, String> {
        match member(members, key, line)? {
            Val::U64(v) => Ok(*v),
            _ => Err(format!("line {line}: field \"{key}\" is not a number")),
        }
    }

    #[cfg(test)]
    fn sample() -> Self {
        u64::MAX
    }
}

impl Field for u32 {
    fn write(&self, out: &mut String, key: &str) {
        u64::from(*self).write(out, key);
    }

    fn read(members: &[Member<'_>], key: &str, line: usize) -> Result<Self, String> {
        match member(members, key, line)? {
            Val::U64(v) => u32::try_from(*v).ok(),
            _ => None,
        }
        .ok_or_else(|| format!("line {line}: field \"{key}\" is not a u32"))
    }

    #[cfg(test)]
    fn sample() -> Self {
        u32::MAX
    }
}

impl Field for String {
    fn write(&self, out: &mut String, key: &str) {
        let _ = write!(out, ",\"{key}\":");
        push_json_str(out, self);
    }

    fn read(members: &[Member<'_>], key: &str, line: usize) -> Result<Self, String> {
        str_member(members, key, line).map(str::to_string)
    }

    #[cfg(test)]
    fn sample() -> Self {
        "say \"hi\"\\\n✓".into()
    }
}

fn str_member<'m>(members: &'m [Member<'_>], key: &str, line: usize) -> Result<&'m str, String> {
    match member(members, key, line)? {
        Val::Str(s) => Ok(s),
        _ => Err(format!("line {line}: field \"{key}\" is not a string")),
    }
}

impl Field for Vec<u32> {
    fn write(&self, out: &mut String, key: &str) {
        let _ = write!(out, ",\"{key}\":[");
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }

    fn read(members: &[Member<'_>], key: &str, line: usize) -> Result<Self, String> {
        match member(members, key, line)? {
            Val::Arr(a) => Ok(a.clone()),
            _ => Err(format!("line {line}: field \"{key}\" is not an array")),
        }
    }

    #[cfg(test)]
    fn sample() -> Self {
        vec![0, 7, u32::MAX]
    }
}

/// A timestamped, sequenced trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emission order across the whole run (total order tie-breaker for
    /// events sharing a timestamp).
    pub seq: u64,
    /// Simulated time of emission, in microseconds.
    pub t: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Appends this record to `out` as one JSONL line (with trailing
    /// newline). Field order is fixed, making the export deterministic
    /// byte-for-byte.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(out, "{{\"seq\":{},\"t\":{},\"ev\":", self.seq, self.t);
        push_json_str(out, self.event.name());
        self.event.write_fields(out);
        out.push_str("}\n");
    }

    /// Renders this record as one JSONL line (without trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        self.write_jsonl(&mut s);
        s.pop(); // trailing newline
        s
    }

    /// Parses one non-blank JSONL line (`line_no` is for error messages).
    /// `members` is the caller's scratch vector, reused from line to line.
    /// Any field order, unknown extra fields and duplicate keys (the first
    /// wins) are accepted; an unknown `ev` name is an error (the format is
    /// versioned by this crate, not forward-compatible).
    pub(crate) fn parse_line<'a>(
        line: &'a str,
        line_no: usize,
        members: &mut Vec<Member<'a>>,
    ) -> Result<Self, String> {
        let mut cur = Cursor::new(line);
        members.clear();
        cur.parse_flat_object(members)
            .map_err(|e| format!("line {line_no}: {e}"))?;
        if !cur.at_end() {
            return Err(format!("line {line_no}: trailing garbage after object"));
        }
        let seq = Field::read(members, "seq", line_no)?;
        let t = Field::read(members, "t", line_no)?;
        let event = TraceEvent::read(str_member(members, "ev", line_no)?, members, line_no)?;
        Ok(TraceRecord { seq, t, event })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table-driven over the generated vocabulary: every `ev` name is
    /// unique, and each row's event survives export and re-parse unchanged
    /// (so writer and parser agree on every key and type) under its own
    /// name.
    #[test]
    fn every_name_is_unique_and_parses_back_to_its_variant() {
        let samples = samples();
        let mut names: Vec<&str> = samples.iter().map(TraceEvent::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), samples.len(), "duplicate ev name");
        for event in samples {
            let record = TraceRecord { seq: 1, t: 2, event };
            let line = record.to_jsonl();
            assert!(line.contains(&format!("\"ev\":\"{}\"", record.event.name())), "{line}");
            let parsed = TraceRecord::parse_line(&line, 1, &mut Vec::new());
            assert_eq!(parsed.as_ref(), Ok(&record), "{line}");
        }
    }

    #[test]
    fn fixed_field_order() {
        let r = TraceRecord {
            seq: 3,
            t: 1500,
            event: TraceEvent::MsgSend {
                from: 1,
                to: 2,
                kind: "prepare".into(),
            },
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"seq":3,"t":1500,"ev":"msg_send","from":1,"to":2,"kind":"prepare"}"#
        );
    }

    #[test]
    fn arrays_render_compactly() {
        let r = TraceRecord {
            seq: 0,
            t: 7,
            event: TraceEvent::QuorumIssued {
                p: 4,
                epoch: 2,
                algo: "qs".into(),
                members: vec![1, 3, 4],
            },
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"seq":0,"t":7,"ev":"quorum_issued","p":4,"epoch":2,"algo":"qs","members":[1,3,4]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let r = TraceRecord {
            seq: 0,
            t: 0,
            event: TraceEvent::FaultApplied {
                desc: "say \"hi\"\\\n".into(),
            },
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"seq":0,"t":0,"ev":"fault","desc":"say \"hi\"\\\n"}"#
        );
    }
}
