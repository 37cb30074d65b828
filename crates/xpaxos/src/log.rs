//! The replicated log: slots, prepare/commit certificates, in-order
//! execution, checkpoint-driven compaction, and the MMR that
//! authenticates compacted history.

use std::collections::BTreeMap;
#[expect(
    clippy::disallowed_types,
    reason = "D1: lookup-only dedup indexes; never iterated"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use qsel_mmr::{leaf_hash, Mmr, MmrError};
use qsel_types::{CheckpointPayload, ProcessId, ProcessSet, Signed};

use crate::messages::{Batch, DecidedEntry, PreparePayload, Request, SignedCommit, SignedPrepare};

/// The payload of a PREPARE or COMMIT the log admitted.
#[expect(
    clippy::disallowed_fields,
    reason = "S1: the replica verifies or signs every entry before `accept_prepare`, `record_commit` or `adopt_decided`, which take raw `Signed` values because the benchmark's log probe calls them"
)]
fn held<T>(entry: &Signed<T>) -> &T {
    &entry.payload
}

/// Hasher of the `(client, op)` dedup keys: one add-and-multiply per
/// integer word, rotated on output so the bucket index (the low bits)
/// sees the well-mixed high bits. Deterministic and unkeyed, which is
/// fine here: both maps are lookup-only, and the keys are simulated.
#[derive(Clone, Copy, Default)]
struct OpKeyHasher(u64);

impl Hasher for OpKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type OpKeys = BuildHasherDefault<OpKeyHasher>;

/// Inserts the dedup assignment of every request in `prepare`'s batch.
#[expect(
    clippy::disallowed_types,
    reason = "D1: lookup-only dedup index; never iterated"
)]
fn assign_batch(assigned: &mut HashMap<(ProcessId, u64), u64, OpKeys>, prepare: &SignedPrepare) {
    let p = held(prepare);
    for req in p.batch.reqs() {
        assigned.insert((req.client, req.op), p.slot);
    }
}

/// Per-slot state.
#[derive(Clone, Debug)]
pub struct Slot {
    /// The accepted PREPARE (ours or embedded in a COMMIT that overtook
    /// it).
    pub prepare: SignedPrepare,
    /// Signed COMMITs received, by sender (kept whole so decided slots
    /// carry a transferable certificate). Ordered so `certificate()`
    /// emits commits in signer order — certificates cross the network
    /// and must not leak iteration order into message bytes.
    pub commits: BTreeMap<ProcessId, SignedCommit>,
    /// Whether we broadcast our own COMMIT for this slot.
    pub committed_by_us: bool,
    /// Whether the commit certificate is complete.
    pub decided: bool,
}

impl Slot {
    /// The accepted PREPARE's payload.
    pub fn prepared(&self) -> &PreparePayload {
        held(&self.prepare)
    }

    fn new(prepare: SignedPrepare) -> Self {
        Slot {
            prepare,
            commits: BTreeMap::new(),
            committed_by_us: false,
            decided: false,
        }
    }
}

/// The replica's log and execution state.
#[derive(Clone, Debug, Default)]
pub struct Log {
    slots: BTreeMap<u64, Slot>,
    /// First slot not yet executed.
    pub exec_cursor: u64,
    /// Executed (slot, request) pairs, in execution order.
    pub executed: Vec<(u64, Request)>,
    /// State-machine state: a running digest-free fold of payloads.
    pub state: u64,
    /// Request dedup: (client, op) → slot.
    #[expect(
        clippy::disallowed_types,
        reason = "D1: lookup-only dedup index; never iterated"
    )]
    assigned: HashMap<(ProcessId, u64), u64, OpKeys>,
    /// Execution dedup: a request re-proposed at a second slot after a
    /// view change must not be applied twice.
    #[expect(
        clippy::disallowed_types,
        reason = "D1: membership-only dedup set; never iterated"
    )]
    executed_ops: HashSet<(ProcessId, u64), OpKeys>,
    /// Merkle mountain range over executed batch digests: leaf `i` is
    /// `leaf_hash(i, batch_i.digest())`, appended as the cursor passes
    /// slot `i`, so `mmr.leaf_count() == exec_cursor` always.
    mmr: Mmr,
    /// Batches of garbage-collected slots kept for serving incremental
    /// state transfer, bounded by the GC policy's `archive_retain`.
    archive: BTreeMap<u64, Batch>,
    /// First slot whose batch content this replica can still serve
    /// (everything below was pruned from both `slots` and `archive`).
    serve_floor: u64,
    /// Slots strictly below this have been compacted away (GC or a
    /// checkpoint jump): their agreement records are gone, so late
    /// PREPARE/COMMIT traffic for them must be dropped rather than
    /// re-admitted as fresh slots. 0 until the first compaction.
    gc_floor: u64,
    /// Checkpoint period in slots (0 disables capture).
    ckpt_interval: u64,
    /// Payloads captured as the cursor crossed interval multiples,
    /// awaiting the replica's signature and broadcast.
    pending_ckpts: Vec<CheckpointPayload>,
}

impl Log {
    /// Creates an empty log starting execution at slot 0.
    pub fn new() -> Self {
        Log::default()
    }

    /// The slot a request was assigned to, if any (leader-side dedup).
    pub fn slot_of(&self, req: &Request) -> Option<u64> {
        self.assigned.get(&(req.client, req.op)).copied()
    }

    /// Records a PREPARE for its slot. Returns `false` (and changes
    /// nothing) if the slot already holds a *different* prepare — the
    /// caller decides whether that means equivocation (same view) or a
    /// legitimate re-proposal (higher view, which replaces the entry).
    pub fn accept_prepare(&mut self, prepare: SignedPrepare) -> bool {
        let slot_no = held(&prepare).slot;
        match self.slots.get_mut(&slot_no) {
            None => {
                assign_batch(&mut self.assigned, &prepare);
                self.slots.insert(slot_no, Slot::new(prepare));
                true
            }
            Some(existing) => {
                if existing.prepare == prepare {
                    true
                } else if held(&prepare).view > existing.prepared().view && !existing.decided {
                    // Re-proposal in a later view supersedes.
                    assign_batch(&mut self.assigned, &prepare);
                    *existing = Slot::new(prepare);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether `slot` currently holds a prepare.
    pub fn prepare_at(&self, slot: u64) -> Option<&SignedPrepare> {
        self.slots.get(&slot).map(|s| &s.prepare)
    }

    /// Access a slot.
    pub fn slot(&self, slot: u64) -> Option<&Slot> {
        self.slots.get(&slot)
    }

    /// Marks that we broadcast our own COMMIT for `slot`.
    pub fn mark_committed_by_us(&mut self, slot: u64) {
        if let Some(s) = self.slots.get_mut(&slot) {
            s.committed_by_us = true;
        }
    }

    /// Records a signed COMMIT. Returns `true` if its digest matches the
    /// accepted prepare's batch digest.
    pub fn record_commit(&mut self, slot: u64, commit: SignedCommit) -> bool {
        let Some(s) = self.slots.get_mut(&slot) else {
            return false;
        };
        let matches = s.prepared().batch.digest() == held(&commit).digest;
        s.commits.insert(commit.signer, commit);
        matches
    }

    /// Checks the commit rule: PREPARE present and matching COMMITs from
    /// every non-leader quorum member (`me`'s own commit counts via
    /// `committed_by_us`). Marks and returns newly decided slots.
    pub fn try_decide(
        &mut self,
        slot: u64,
        quorum: &ProcessSet,
        leader: ProcessId,
        me: ProcessId,
    ) -> bool {
        let Some(s) = self.slots.get_mut(&slot) else {
            return false;
        };
        if s.decided {
            return false;
        }
        let want = s.prepared().batch.digest();
        let all_in = quorum.iter().filter(|p| *p != leader).all(|p| {
            if p == me {
                s.committed_by_us
            } else {
                s.commits.get(&p).is_some_and(|c| held(c).digest == want)
            }
        });
        if all_in {
            s.decided = true;
            true
        } else {
            false
        }
    }

    /// Executes decided slots in order from the cursor; returns the
    /// executed (slot, request) pairs. A decided slot's batch executes
    /// request by request in batch order; a request already executed at an
    /// earlier slot (or earlier in the same batch) is skipped as a no-op.
    /// The slot advances the cursor either way.
    pub fn execute_ready(&mut self) -> Vec<(u64, Request)> {
        let mut out = Vec::new();
        while let Some(s) = self.slots.get(&self.exec_cursor).filter(|s| s.decided) {
            let batch = s.prepared().batch.clone();
            self.execute_at_cursor(&batch, &mut out);
        }
        out
    }

    /// Executes `batch` as the cursor's slot — requests not executed
    /// before fold into the state and are appended to `out` — then
    /// appends the slot's MMR leaf and advances the cursor.
    fn execute_at_cursor(&mut self, batch: &Batch, out: &mut Vec<(u64, Request)>) {
        for req in batch.reqs() {
            if self.executed_ops.insert((req.client, req.op)) {
                self.state = self
                    .state
                    .wrapping_mul(1099511628211)
                    .wrapping_add(req.payload);
                out.push((self.exec_cursor, req.clone()));
                self.executed.push((self.exec_cursor, req.clone()));
            }
        }
        self.mmr.push(leaf_hash(self.exec_cursor, &batch.digest()));
        self.exec_cursor += 1;
        self.maybe_capture_checkpoint();
    }

    /// Slots at or above `from` that hold a prepare but are not yet
    /// decided — the leader's in-flight pipeline occupancy.
    pub fn undecided_from(&self, from: u64) -> usize {
        self.slots.range(from..).filter(|(_, s)| !s.decided).count()
    }

    /// Prepared entries at or above `from_slot` (for VIEW-CHANGE
    /// messages): slots where we sent a COMMIT, plus decided ones.
    /// Slots below the watermark are covered by certificates / state
    /// transfer and need not be re-proposed.
    pub fn prepared_entries_from(&self, from_slot: u64) -> Vec<SignedPrepare> {
        self.slots
            .range(from_slot..)
            .map(|(_, s)| s)
            .filter(|s| s.committed_by_us || s.decided)
            .map(|s| s.prepare.clone())
            .collect()
    }

    /// The watermark: every slot below it is decided and executed.
    pub fn watermark(&self) -> u64 {
        self.exec_cursor
    }

    /// The transferable certificates of the decided slots in `slots`, in
    /// slot order: each accepted PREPARE plus every recorded signed COMMIT.
    pub(crate) fn decided_entries(&self, slots: Range<u64>) -> Vec<DecidedEntry> {
        slots
            .filter_map(|slot| self.slots.get(&slot).filter(|s| s.decided))
            .map(|s| DecidedEntry {
                prepare: s.prepare.clone(),
                commits: s.commits.values().cloned().collect(),
            })
            .collect()
    }

    /// Adopts a verified decided entry (state transfer / lazy
    /// replication): stores the prepare with its commit certificate and
    /// marks the slot decided. A conflicting *decided* entry is never
    /// overwritten; returns `false` in that case.
    pub fn adopt_decided(&mut self, prepare: SignedPrepare, commits: Vec<SignedCommit>) -> bool {
        let slot_no = held(&prepare).slot;
        match self.slots.get_mut(&slot_no) {
            Some(existing) if existing.decided => existing.prepared().batch == held(&prepare).batch,
            existing => {
                assign_batch(&mut self.assigned, &prepare);
                let mut slot = Slot::new(prepare);
                slot.decided = true;
                slot.commits = commits.into_iter().map(|c| (c.signer, c)).collect();
                match existing {
                    Some(e) => *e = slot,
                    None => {
                        self.slots.insert(slot_no, slot);
                    }
                }
                true
            }
        }
    }

    /// Highest slot number that holds a prepare.
    pub fn max_slot(&self) -> Option<u64> {
        self.slots.keys().next_back().copied()
    }

    /// Number of decided slots.
    pub fn decided_count(&self) -> usize {
        self.slots.values().filter(|s| s.decided).count()
    }

    // ------------------------------------------------------------------
    // Checkpointing, compaction, and transfer serving
    // ------------------------------------------------------------------

    /// Sets the checkpoint period: whenever the execution cursor crosses
    /// a multiple of `interval`, the log captures a [`CheckpointPayload`]
    /// at exactly that boundary (every correct replica executing the same
    /// prefix captures a byte-identical payload, which is what makes
    /// `f + 1` matching signatures achievable). Zero disables capture.
    pub fn set_checkpoint_interval(&mut self, interval: u64) {
        self.ckpt_interval = interval;
    }

    /// Captures a checkpoint payload if the cursor sits exactly on a
    /// non-zero interval boundary. Called after every single-slot cursor
    /// advance, so no boundary is ever skipped or approximated.
    fn maybe_capture_checkpoint(&mut self) {
        if self.ckpt_interval == 0 || self.exec_cursor == 0 {
            return;
        }
        if !self.exec_cursor.is_multiple_of(self.ckpt_interval) {
            return;
        }
        // Infallible by the `mmr.leaf_count() == exec_cursor` invariant;
        // if it ever failed we would rather skip a checkpoint than panic.
        if let Ok(peaks) = self.mmr.peaks() {
            self.pending_ckpts.push(CheckpointPayload {
                slot: self.exec_cursor,
                state: self.state,
                peaks,
            });
        }
    }

    /// Drains the checkpoint payloads captured since the last call (the
    /// replica signs and broadcasts them).
    pub fn take_pending_checkpoints(&mut self) -> Vec<CheckpointPayload> {
        std::mem::take(&mut self.pending_ckpts)
    }

    /// Applies an MMR-verified compact entry at the cursor: executes the
    /// batch exactly as [`Log::execute_ready`] would have, advances the
    /// cursor, and parks the batch in the archive so this replica can in
    /// turn serve it. Returns the executed requests, or `None` if `slot`
    /// is not the cursor (out-of-order chunks are a protocol error the
    /// caller handles). The caller MUST have verified the entry's
    /// inclusion proof against a trusted checkpoint root first.
    pub fn apply_compact(&mut self, slot: u64, batch: &Batch) -> Option<Vec<(u64, Request)>> {
        if slot != self.exec_cursor {
            return None;
        }
        for req in batch.reqs() {
            self.assigned.insert((req.client, req.op), slot);
        }
        let mut out = Vec::new();
        self.execute_at_cursor(batch, &mut out);
        self.archive.insert(slot, batch.clone());
        Some(out)
    }

    /// The MMR over the executed prefix (read access for proof serving).
    pub fn mmr(&self) -> &Mmr {
        &self.mmr
    }

    /// Slots currently resident in the live map — the quantity the GC
    /// invariant bounds (soak tests assert it stays O(checkpoint
    /// interval + in-flight pipeline)).
    pub fn log_len(&self) -> usize {
        self.slots.len()
    }

    /// Batches resident in the transfer archive (bounded by
    /// `archive_retain`).
    pub fn archive_len(&self) -> usize {
        self.archive.len()
    }

    /// First slot whose batch content this replica can still serve to a
    /// recovering peer.
    pub fn serve_floor(&self) -> u64 {
        self.serve_floor
    }

    /// Slots strictly below this have had their agreement records
    /// compacted away: late PREPARE/COMMIT traffic for them is old news
    /// (the slot is covered by a stable checkpoint) and must be ignored,
    /// not re-admitted as a fresh slot.
    pub fn gc_floor(&self) -> u64 {
        self.gc_floor
    }

    /// The checkpoint content at the current watermark: the executed
    /// prefix length, the state fold, and the MMR peaks.
    ///
    /// # Errors
    ///
    /// Propagates [`MmrError`] — only reachable if the forest somehow
    /// lacks its own current peaks, which the `mmr.leaf_count() ==
    /// exec_cursor` invariant rules out.
    pub fn checkpoint_payload(&self) -> Result<CheckpointPayload, MmrError> {
        Ok(CheckpointPayload {
            slot: self.exec_cursor,
            state: self.state,
            peaks: self.mmr.peaks()?,
        })
    }

    /// Garbage-collects executed slots below `stable_slot` from the live
    /// map, parking their batches in the transfer archive, which is in
    /// turn pruned to the last `archive_retain` slots below the stable
    /// point. Never touches unexecuted slots (the bound is clamped to the
    /// cursor). Returns the number of slots compacted.
    pub fn gc_below(&mut self, stable_slot: u64, archive_retain: u64) -> usize {
        let bound = stable_slot.min(self.exec_cursor);
        self.gc_floor = self.gc_floor.max(bound);
        let keep = self.slots.split_off(&bound);
        let dropped = std::mem::replace(&mut self.slots, keep);
        let n = dropped.len();
        for (slot, s) in dropped {
            self.archive.insert(slot, s.prepared().batch.clone());
        }
        let floor = bound.saturating_sub(archive_retain);
        self.archive = self.archive.split_off(&floor);
        self.serve_floor = self.serve_floor.max(floor);
        n
    }

    /// The executed batch at `slot`, from the live map or the archive —
    /// what a donor serves in a transfer chunk.
    pub fn batch_at(&self, slot: u64) -> Option<&Batch> {
        if slot >= self.exec_cursor {
            return None;
        }
        self.archive
            .get(&slot)
            .or_else(|| self.slots.get(&slot).map(|s| &s.prepared().batch))
    }

    /// Jumps the log forward to a verified stable checkpoint: the cursor
    /// and state adopt the certified values and the MMR resumes from the
    /// certified peaks. Decided slots at or above the checkpoint are kept
    /// and will execute normally. A checkpoint at or behind the cursor is
    /// a no-op (we are already past it).
    ///
    /// # Errors
    ///
    /// [`MmrError::PeakCountMismatch`] if the payload's peaks do not
    /// match its slot's bit pattern (a malformed certificate — nothing is
    /// modified in that case).
    pub fn install_checkpoint(&mut self, ckpt: &CheckpointPayload) -> Result<(), MmrError> {
        if ckpt.slot <= self.exec_cursor {
            return Ok(());
        }
        let mmr = Mmr::from_peaks(ckpt.slot, &ckpt.peaks)?;
        self.mmr = mmr;
        self.slots = self.slots.split_off(&ckpt.slot);
        self.archive.clear();
        self.gc_floor = self.gc_floor.max(ckpt.slot);
        self.serve_floor = ckpt.slot;
        self.exec_cursor = ckpt.slot;
        self.state = ckpt.state;
        Ok(())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_fields,
    reason = "S1 binds production code, and tests read and tamper with payloads to build fixtures and forgeries"
)]
mod tests {
    use super::*;
    use qsel_types::crypto::Keychain;
    use qsel_types::ClusterConfig;

    use crate::messages::{Batch, PreparePayload};

    fn chain() -> Keychain {
        Keychain::new(&ClusterConfig::new(4, 1).unwrap(), 1)
    }

    fn prep(chain: &Keychain, leader: u32, view: u64, slot: u64, payload: u64) -> SignedPrepare {
        chain.signer(ProcessId(leader)).sign(PreparePayload {
            view,
            slot,
            batch: Batch::single(Request {
                client: ProcessId(9),
                op: slot + 1,
                payload,
            }),
        })
    }

    fn prep_batch(
        chain: &Keychain,
        leader: u32,
        view: u64,
        slot: u64,
        reqs: Vec<Request>,
    ) -> SignedPrepare {
        chain.signer(ProcessId(leader)).sign(PreparePayload {
            view,
            slot,
            batch: Batch::new(reqs),
        })
    }

    /// A signed COMMIT from `signer` for `prepare`, with an optionally
    /// mismatched digest.
    fn commit_for(
        chain: &Keychain,
        signer: u32,
        prepare: &SignedPrepare,
        digest: qsel_types::crypto::Digest,
    ) -> crate::messages::SignedCommit {
        chain
            .signer(ProcessId(signer))
            .sign(crate::messages::CommitPayload {
                view: prepare.payload.view,
                slot: prepare.payload.slot,
                digest,
                prepare: prepare.clone(),
            })
    }

    #[test]
    fn accept_and_dedup() {
        let c = chain();
        let mut log = Log::new();
        let p = prep(&c, 1, 0, 0, 5);
        assert!(log.accept_prepare(p.clone()));
        assert!(log.accept_prepare(p.clone())); // idempotent
        assert_eq!(log.slot_of(&p.payload.batch.reqs()[0]), Some(0));
        // Conflicting prepare in the same view is rejected.
        let conflicting = prep(&c, 1, 0, 0, 6);
        assert!(!log.accept_prepare(conflicting));
    }

    #[test]
    fn higher_view_supersedes_undecided() {
        let c = chain();
        let mut log = Log::new();
        log.accept_prepare(prep(&c, 1, 0, 0, 5));
        let newer = prep(&c, 2, 3, 0, 7);
        assert!(log.accept_prepare(newer.clone()));
        assert_eq!(log.prepare_at(0), Some(&newer));
    }

    #[test]
    fn commit_rule_requires_all_nonleader_members() {
        let c = chain();
        let mut log = Log::new();
        let p = prep(&c, 1, 0, 0, 5);
        let digest = p.payload.batch.digest();
        log.accept_prepare(p);
        let quorum: ProcessSet = [1, 2, 3].into_iter().map(ProcessId).collect();
        let me = ProcessId(2);
        let leader = ProcessId(1);
        // Own commit not yet sent: not decided.
        let p0 = log.prepare_at(0).unwrap().clone();
        log.record_commit(0, commit_for(&c, 3, &p0, digest));
        assert!(!log.try_decide(0, &quorum, leader, me));
        log.mark_committed_by_us(0);
        assert!(log.try_decide(0, &quorum, leader, me));
        // Second decide attempt returns false (already decided).
        assert!(!log.try_decide(0, &quorum, leader, me));
    }

    #[test]
    fn mismatched_digest_blocks_decision() {
        let c = chain();
        let mut log = Log::new();
        let p = prep(&c, 1, 0, 0, 5);
        let wrong = prep(&c, 1, 0, 1, 6).payload.batch.digest();
        log.accept_prepare(p);
        log.mark_committed_by_us(0);
        let p0 = log.prepare_at(0).unwrap().clone();
        assert!(!log.record_commit(0, commit_for(&c, 3, &p0, wrong)));
        let quorum: ProcessSet = [1, 2, 3].into_iter().map(ProcessId).collect();
        assert!(!log.try_decide(0, &quorum, ProcessId(1), ProcessId(2)));
    }

    #[test]
    fn execution_in_order_with_gaps() {
        let c = chain();
        let mut log = Log::new();
        for slot in [0u64, 1, 2] {
            log.accept_prepare(prep(&c, 1, 0, slot, slot + 10));
            log.mark_committed_by_us(slot);
        }
        let quorum: ProcessSet = [1, 2, 3].into_iter().map(ProcessId).collect();
        let digest_of = |log: &Log, s: u64| log.prepare_at(s).unwrap().payload.batch.digest();
        // Decide slots 0 and 2 (gap at 1).
        for s in [0u64, 2] {
            let d = digest_of(&log, s);
            let pr = log.prepare_at(s).unwrap().clone();
            log.record_commit(s, commit_for(&c, 3, &pr, d));
            assert!(log.try_decide(s, &quorum, ProcessId(1), ProcessId(2)));
        }
        let executed = log.execute_ready();
        assert_eq!(executed.len(), 1, "gap at slot 1 blocks slot 2");
        assert_eq!(executed[0].0, 0);
        // Fill the gap: slot 1 decided → 1 and 2 execute.
        let d = digest_of(&log, 1);
        let pr = log.prepare_at(1).unwrap().clone();
        log.record_commit(1, commit_for(&c, 3, &pr, d));
        assert!(log.try_decide(1, &quorum, ProcessId(1), ProcessId(2)));
        let executed = log.execute_ready();
        assert_eq!(
            executed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(log.exec_cursor, 3);
    }

    #[test]
    fn prepared_entries_for_view_change() {
        let c = chain();
        let mut log = Log::new();
        log.accept_prepare(prep(&c, 1, 0, 0, 5));
        log.accept_prepare(prep(&c, 1, 0, 1, 6));
        log.mark_committed_by_us(0);
        assert_eq!(log.prepared_entries_from(0).len(), 1);
        assert_eq!(log.prepared_entries_from(1).len(), 0);
    }

    #[test]
    fn batched_slot_executes_requests_in_order_exactly_once() {
        let c = chain();
        let mut log = Log::new();
        let r = |op: u64| Request {
            client: ProcessId(9),
            op,
            payload: op * 10,
        };
        // Slot 0 carries [op1, op2]; slot 1 re-proposes op2 (as after a
        // view change) alongside op3 — op2 must execute only once.
        let p0 = prep_batch(&c, 1, 0, 0, vec![r(1), r(2)]);
        let p1 = prep_batch(&c, 1, 0, 1, vec![r(2), r(3)]);
        let quorum: ProcessSet = [1, 2, 3].into_iter().map(ProcessId).collect();
        for p in [p0, p1] {
            let slot = p.payload.slot;
            let d = p.payload.batch.digest();
            log.accept_prepare(p.clone());
            log.mark_committed_by_us(slot);
            log.record_commit(slot, commit_for(&c, 3, &p, d));
            assert!(log.try_decide(slot, &quorum, ProcessId(1), ProcessId(2)));
        }
        let executed = log.execute_ready();
        assert_eq!(
            executed.iter().map(|(s, q)| (*s, q.op)).collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (1, 3)],
            "batch order within a slot, dedup across slots"
        );
        assert_eq!(log.exec_cursor, 2);
        assert_eq!(log.undecided_from(0), 0);
    }

    #[test]
    fn undecided_from_counts_in_flight_slots() {
        let c = chain();
        let mut log = Log::new();
        for slot in 0..3u64 {
            log.accept_prepare(prep(&c, 1, 0, slot, slot));
        }
        assert_eq!(log.undecided_from(0), 3);
        assert_eq!(log.undecided_from(2), 1);
        let quorum: ProcessSet = [1, 2, 3].into_iter().map(ProcessId).collect();
        let p = log.prepare_at(0).unwrap().clone();
        let d = p.payload.batch.digest();
        log.mark_committed_by_us(0);
        log.record_commit(0, commit_for(&c, 3, &p, d));
        log.try_decide(0, &quorum, ProcessId(1), ProcessId(2));
        assert_eq!(log.undecided_from(0), 2);
    }

    #[test]
    fn deterministic_state_fold() {
        let c = chain();
        let run = || {
            let mut log = Log::new();
            let quorum: ProcessSet = [1, 2, 3].into_iter().map(ProcessId).collect();
            for slot in 0..5u64 {
                log.accept_prepare(prep(&c, 1, 0, slot, slot * 3));
                log.mark_committed_by_us(slot);
                let pr = log.prepare_at(slot).unwrap().clone();
                let d = pr.payload.batch.digest();
                log.record_commit(slot, commit_for(&c, 3, &pr, d));
                log.try_decide(slot, &quorum, ProcessId(1), ProcessId(2));
            }
            log.execute_ready();
            log.state
        };
        assert_eq!(run(), run());
    }

    mod dedup_oracle {
        use std::collections::{BTreeMap, BTreeSet};

        use proptest::prelude::*;

        use super::*;

        type Key = (ProcessId, u64);

        /// `(kind, view, slot, batch keys)`: kind 0 accepts a PREPARE,
        /// 1 adopts a decided entry, 2 executes what is ready.
        fn arb_step() -> impl Strategy<Value = (u8, u64, u64, Vec<(u32, u64)>)> {
            (
                0u8..3,
                0u64..3,
                0u64..6,
                proptest::collection::vec((1u32..4, 0u64..5), 1..4),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Slot assignment and execution dedup agree with ordered-map
            /// twins: a stored PREPARE maps its requests to its slot (the
            /// latest store wins), and execution skips a key seen before.
            #[test]
            fn dedup_maps_match_ordered_oracles(
                steps in proptest::collection::vec(arb_step(), 1..40),
            ) {
                let c = chain();
                let mut log = Log::new();
                let mut assigned: BTreeMap<Key, u64> = BTreeMap::new();
                let mut executed: BTreeSet<Key> = BTreeSet::new();
                for (kind, view, slot, keys) in steps {
                    let reqs: Vec<Request> = keys
                        .iter()
                        .map(|&(client, op)| Request {
                            client: ProcessId(client),
                            op,
                            payload: view * 7 + slot,
                        })
                        .collect();
                    let p = prep_batch(&c, 1, view, slot, reqs.clone());
                    let stored = match kind {
                        0 => {
                            let before = log.prepare_at(slot).cloned();
                            log.accept_prepare(p.clone()) && before.as_ref() != Some(&p)
                        }
                        1 => {
                            let decided = log.slot(slot).is_some_and(|s| s.decided);
                            log.adopt_decided(p, Vec::new());
                            !decided
                        }
                        _ => {
                            let from = log.exec_cursor;
                            let out = log.execute_ready();
                            let mut want = Vec::new();
                            for s in from..log.exec_cursor {
                                for req in log.slot(s).unwrap().prepare.payload.batch.reqs() {
                                    if executed.insert((req.client, req.op)) {
                                        want.push((s, req.clone()));
                                    }
                                }
                            }
                            prop_assert_eq!(out, want);
                            false
                        }
                    };
                    if stored {
                        for req in &reqs {
                            assigned.insert((req.client, req.op), slot);
                        }
                    }
                    for client in 1..4 {
                        for op in 0..5 {
                            let key = (ProcessId(client), op);
                            let req = Request { client: key.0, op, payload: 0 };
                            prop_assert_eq!(log.slot_of(&req), assigned.get(&key).copied());
                        }
                    }
                }
            }
        }
    }
}
