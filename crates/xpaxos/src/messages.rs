//! XPaxos wire messages (Fig. 2 / Fig. 3 of the paper, plus view change).

use std::sync::Arc;

use qsel::messages::SignedUpdate;
use qsel_mmr::MmrProof;
use qsel_types::crypto::{sha256, Digest};
use qsel_types::encode::{with_encoded, Decode, DecodeError, Encode, Reader};
use qsel_types::{CheckpointPayload, ProcessId, Signed};

/// Consumes a 4-byte domain-separation tag, rejecting a mismatch.
fn expect_tag(r: &mut Reader<'_>, tag: &[u8; 4]) -> Result<(), DecodeError> {
    let got = r.take(4)?;
    if got == tag {
        Ok(())
    } else {
        Err(DecodeError::BadTag(got[0]))
    }
}

/// A client request. Clients are simulation actors with ids above the
/// replica range; requests carry a per-client sequence number for
/// deduplication and a payload the state machine folds into its state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// The issuing client (a simulation actor id).
    pub client: ProcessId,
    /// Client-local sequence number.
    pub op: u64,
    /// Operation payload.
    pub payload: u64,
}

impl Request {
    /// Digest of the request (carried in COMMIT messages, §V-A).
    pub fn digest(&self) -> Digest {
        with_encoded(self, sha256)
    }
}

impl Encode for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"REQS");
        self.client.encode(buf);
        self.op.encode(buf);
        self.payload.encode(buf);
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"REQS")?;
        Ok(Request {
            client: ProcessId::decode(r)?,
            op: u64::decode(r)?,
            payload: u64::decode(r)?,
        })
    }
}

/// An ordered batch of client requests agreed on as one slot. The leader
/// closes batches under its `BatchPolicy`; every replica executes a decided
/// batch's requests in batch order, so a batch is the unit of agreement
/// while the request stays the unit of execution (and of the `Executed`
/// trace event).
///
/// Clones share the requests, and the digest is computed once, when the
/// batch is built or decoded (it is never read from the wire); the fields
/// are private so the two always agree. Equality is by content.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Batch {
    reqs: Arc<[Request]>,
    digest: Digest,
}

impl Batch {
    /// A batch over `reqs` in the given order.
    pub fn new(reqs: Vec<Request>) -> Self {
        let mut batch = Batch {
            reqs: reqs.into(),
            digest: Digest([0; 32]),
        };
        batch.digest = with_encoded(&batch, sha256);
        batch
    }

    /// The single-request batch the passthrough (default) policy proposes.
    pub fn single(req: Request) -> Self {
        Batch::new(vec![req])
    }

    /// The batched requests, in proposal order.
    pub fn reqs(&self) -> &[Request] {
        &self.reqs
    }

    /// Digest of the whole batch's encoding (carried in COMMIT messages,
    /// §V-A). The encoding is length-prefixed, so a batch of one request
    /// and the bare request digest differently, and no two distinct
    /// batches collide.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether the batch carries no requests.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Whether some request in the batch is `(client, op)`.
    pub fn contains(&self, client: ProcessId, op: u64) -> bool {
        self.reqs.iter().any(|r| r.client == client && r.op == op)
    }
}

impl Encode for Batch {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"BTCH");
        self.reqs.encode(buf);
    }
}

impl Decode for Batch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"BTCH")?;
        Ok(Batch::new(Vec::decode(r)?))
    }
}

/// `PREPARE` payload: the leader proposes `batch` at `slot` in `view`
/// (§V-A step 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PreparePayload {
    /// The view this proposal belongs to.
    pub view: u64,
    /// The log slot.
    pub slot: u64,
    /// The proposed batch of client requests.
    pub batch: Batch,
}

impl Encode for PreparePayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"PREP");
        self.view.encode(buf);
        self.slot.encode(buf);
        self.batch.encode(buf);
    }
}

impl Decode for PreparePayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"PREP")?;
        Ok(PreparePayload {
            view: u64::decode(r)?,
            slot: u64::decode(r)?,
            batch: Batch::decode(r)?,
        })
    }
}

/// A signed PREPARE.
pub type SignedPrepare = Signed<PreparePayload>;

/// `COMMIT` payload. Per the paper's second protocol change, a COMMIT
/// includes the leader's PREPARE (so malformed COMMITs and leader
/// equivocation are detectable), plus the request digest.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommitPayload {
    /// View of the prepare being committed.
    pub view: u64,
    /// Slot of the prepare being committed.
    pub slot: u64,
    /// Digest of the proposed batch.
    pub digest: Digest,
    /// The leader's PREPARE message (paper §V-A: "we therefore require
    /// that a COMMIT includes the PREPARE message from the leader").
    pub prepare: SignedPrepare,
}

impl Encode for CommitPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"CMMT");
        self.view.encode(buf);
        self.slot.encode(buf);
        self.digest.encode(buf);
        self.prepare.encode(buf);
    }
}

impl Decode for CommitPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"CMMT")?;
        Ok(CommitPayload {
            view: u64::decode(r)?,
            slot: u64::decode(r)?,
            digest: Digest::decode(r)?,
            prepare: SignedPrepare::decode(r)?,
        })
    }
}

/// A signed COMMIT.
pub type SignedCommit = Signed<CommitPayload>;

/// `VIEW-CHANGE` payload: sent when moving to `target_view`, carrying the
/// sender's watermark (first non-executed slot — everything below it is
/// decided) and its prepared entries above the watermark, so the new
/// leader can preserve them without replaying history.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViewChangePayload {
    /// The view being installed.
    pub target_view: u64,
    /// First slot not yet decided-and-executed at the sender.
    pub watermark: u64,
    /// Entries the sender has prepared (sent a COMMIT for) at or above
    /// its watermark, as the original signed PREPAREs.
    pub prepared: Vec<SignedPrepare>,
}

impl Encode for ViewChangePayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"VCHG");
        self.target_view.encode(buf);
        self.watermark.encode(buf);
        self.prepared.encode(buf);
    }
}

impl Decode for ViewChangePayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"VCHG")?;
        Ok(ViewChangePayload {
            target_view: u64::decode(r)?,
            watermark: u64::decode(r)?,
            prepared: Vec::decode(r)?,
        })
    }
}

/// A signed VIEW-CHANGE.
pub type SignedViewChange = Signed<ViewChangePayload>;

/// `NEW-VIEW` payload: the new leader's merged log; receivers adopt it and
/// resume normal operation. The merged entries are re-proposed by fresh
/// PREPAREs in the new view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NewViewPayload {
    /// The view being activated.
    pub view: u64,
    /// Every slot below `base` is decided somewhere in the new quorum;
    /// members behind it catch up via state transfer instead of
    /// re-agreement.
    pub base: u64,
    /// Re-proposals for the undecided slots at or above `base`.
    pub reproposals: Vec<SignedPrepare>,
}

impl Encode for NewViewPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"NVEW");
        self.view.encode(buf);
        self.base.encode(buf);
        self.reproposals.encode(buf);
    }
}

impl Decode for NewViewPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"NVEW")?;
        Ok(NewViewPayload {
            view: u64::decode(r)?,
            base: u64::decode(r)?,
            reproposals: Vec::decode(r)?,
        })
    }
}

/// A signed NEW-VIEW.
pub type SignedNewView = Signed<NewViewPayload>;

/// A reply to a client.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reply {
    /// The replica's current view (for client leader-tracking).
    pub view: u64,
    /// The client's op number this reply answers.
    pub op: u64,
    /// Execution result (the slot, doubling as the state-machine output).
    pub result: u64,
}

impl Encode for Reply {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.view.encode(buf);
        self.op.encode(buf);
        self.result.encode(buf);
    }
}

impl Decode for Reply {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Reply {
            view: u64::decode(r)?,
            op: u64::decode(r)?,
            result: u64::decode(r)?,
        })
    }
}

/// A liveness heartbeat exchanged among active-quorum members. The paper's
/// failure classification (§II) assumes "every process is expected to send
/// infinitely many messages … the case in systems that use heartbeats";
/// this is that traffic, so crashes and per-link omissions are detected
/// even while no client operations are in flight.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HeartbeatPayload {
    /// Monotone sequence number.
    pub seq: u64,
}

impl Encode for HeartbeatPayload {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"XHRT");
        self.seq.encode(buf);
    }
}

impl Decode for HeartbeatPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"XHRT")?;
        Ok(HeartbeatPayload {
            seq: u64::decode(r)?,
        })
    }
}

/// A signed heartbeat.
pub type SignedHeartbeat = Signed<HeartbeatPayload>;

/// A decided slot with its transferable certificate: the leader's
/// PREPARE plus the signed COMMITs of every non-leader quorum member.
/// Receivers verify the certificate before adopting the entry, so not
/// even a Byzantine sender can forge decided state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecidedEntry {
    /// The accepted prepare.
    pub prepare: SignedPrepare,
    /// The commit certificate.
    pub commits: Vec<SignedCommit>,
}

impl Encode for DecidedEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"DCRT");
        self.prepare.encode(buf);
        self.commits.encode(buf);
    }
}

impl Decode for DecidedEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"DCRT")?;
        Ok(DecidedEntry {
            prepare: SignedPrepare::decode(r)?,
            commits: Vec::decode(r)?,
        })
    }
}

/// A replica's signed checkpoint vote (see [`CheckpointPayload`]).
pub type SignedCheckpoint = Signed<CheckpointPayload>;

/// A stable-checkpoint certificate: `f + 1` [`SignedCheckpoint`]s over
/// byte-identical payloads. At least one signer is correct, and a correct
/// replica only signs a checkpoint it computed by executing the prefix —
/// so a verified certificate proves the payload's state and MMR peaks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointCert {
    /// The matching signed votes, ascending by signer.
    pub sigs: Vec<SignedCheckpoint>,
}

impl CheckpointCert {
    /// The certified payload (all votes carry the same one; structural
    /// agreement is enforced by the verifier, not assumed here).
    pub fn payload(&self) -> Option<&CheckpointPayload> {
        self.sigs.first().map(|s| &s.payload)
    }
}

impl Encode for CheckpointCert {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"CCRT");
        self.sigs.encode(buf);
    }
}

impl Decode for CheckpointCert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"CCRT")?;
        Ok(CheckpointCert {
            sigs: Vec::decode(r)?,
        })
    }
}

/// One compacted log entry served during incremental state transfer: the
/// batch executed at `slot`, authenticated by an MMR inclusion proof
/// against a checkpoint certificate's root instead of by its (garbage-
/// collected) commit certificate. Receivers recompute the leaf from the
/// received bytes and verify the proof before applying anything.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompactEntry {
    /// The slot the batch was executed at.
    pub slot: u64,
    /// The executed batch.
    pub batch: Batch,
    /// Inclusion proof binding `(slot, batch)` to the certified MMR root.
    pub proof: MmrProof,
}

impl Encode for CompactEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"CENT");
        self.slot.encode(buf);
        self.batch.encode(buf);
        self.proof.encode(buf);
    }
}

impl Decode for CompactEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        expect_tag(r, b"CENT")?;
        Ok(CompactEntry {
            slot: u64::decode(r)?,
            batch: Batch::decode(r)?,
            proof: MmrProof::decode(r)?,
        })
    }
}

/// All XPaxos wire messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum XpMsg {
    /// Client → replicas.
    Request(Request),
    /// Leader → quorum (step 1).
    Prepare(SignedPrepare),
    /// Quorum member → quorum (step 2).
    Commit(SignedCommit),
    /// Replica → client (after execution).
    Reply(Reply),
    /// Any process → new leader on view change.
    ViewChange(SignedViewChange),
    /// New leader → all.
    NewView(SignedNewView),
    /// Piggybacked quorum-selection traffic.
    Update(SignedUpdate),
    /// Liveness heartbeat among active-quorum members.
    Heartbeat(SignedHeartbeat),
    /// Background replication of decided entries to passive replicas
    /// (XPaxos's lazy replication), so their logs stay near the frontier
    /// and view changes never replay history.
    LazyUpdate {
        /// Certified decided entries.
        entries: Vec<DecidedEntry>,
    },
    /// Request for decided entries in `[from_slot, to_slot)` (state
    /// transfer after a NEW-VIEW whose base is ahead of the requester).
    StateFetch {
        /// First wanted slot.
        from_slot: u64,
        /// One past the last wanted slot.
        to_slot: u64,
    },
    /// Response to [`XpMsg::StateFetch`].
    StateBatch {
        /// Certified decided entries.
        entries: Vec<DecidedEntry>,
    },
    /// A replica's periodic checkpoint vote, broadcast to all replicas.
    Checkpoint(SignedCheckpoint),
    /// A recovering replica probing the cluster: "I have executed up to
    /// `watermark`; what checkpoint and log range can you serve?"
    SyncQuery {
        /// The requester's executed-prefix length.
        watermark: u64,
    },
    /// A donor's answer to [`XpMsg::SyncQuery`].
    SyncInfo {
        /// The donor's newest stable-checkpoint certificate, if any.
        checkpoint: Option<CheckpointCert>,
        /// First slot the donor can still serve batch content for (its
        /// GC floor / archive start).
        archive_from: u64,
        /// The donor's executed-prefix length.
        frontier: u64,
    },
    /// Request for MMR-authenticated compact entries `[from_slot,
    /// to_slot)`, proved against the certified root at size `proof_slot`.
    SyncFetch {
        /// First wanted slot.
        from_slot: u64,
        /// One past the last wanted slot.
        to_slot: u64,
        /// Checkpoint size the proofs must be generated against.
        proof_slot: u64,
    },
    /// Response to [`XpMsg::SyncFetch`].
    SyncChunk {
        /// Compact entries with inclusion proofs, ascending by slot.
        entries: Vec<CompactEntry>,
        /// The checkpoint size the proofs were generated against (echo of
        /// the request's `proof_slot`).
        proof_slot: u64,
    },
}

impl XpMsg {
    /// Kind tag for traffic accounting (experiment E8).
    pub fn kind(&self) -> &'static str {
        match self {
            XpMsg::Request(_) => "request",
            XpMsg::Prepare(_) => "prepare",
            XpMsg::Commit(_) => "commit",
            XpMsg::Reply(_) => "reply",
            XpMsg::ViewChange(_) => "view-change",
            XpMsg::NewView(_) => "new-view",
            XpMsg::Update(_) => "update",
            XpMsg::Heartbeat(_) => "heartbeat",
            XpMsg::LazyUpdate { .. } => "lazy-update",
            XpMsg::StateFetch { .. } => "state-fetch",
            XpMsg::StateBatch { .. } => "state-batch",
            XpMsg::Checkpoint(_) => "checkpoint",
            XpMsg::SyncQuery { .. } => "sync-query",
            XpMsg::SyncInfo { .. } => "sync-info",
            XpMsg::SyncFetch { .. } => "sync-fetch",
            XpMsg::SyncChunk { .. } => "sync-chunk",
        }
    }

    /// Whether this is inter-replica traffic (excludes client-facing
    /// request/reply messages) — the quantity the paper's intro claims
    /// Quorum Selection reduces by ~1/3 (3f+1 systems) or ~1/2 (2f+1).
    pub fn is_inter_replica(&self) -> bool {
        !matches!(self, XpMsg::Request(_) | XpMsg::Reply(_))
    }
}

// Wire framing: a one-byte variant discriminant followed by the variant's
// canonical payload encoding. The simulator passes `XpMsg` values by clone,
// so this framing is exercised only by the round-trip property tests — but
// it is exactly what a real transport would ship, and it is where
// length-prefix bugs in `qsel_types::encode` would bite.
impl Encode for XpMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            XpMsg::Request(r) => {
                buf.push(0);
                r.encode(buf);
            }
            XpMsg::Prepare(p) => {
                buf.push(1);
                p.encode(buf);
            }
            XpMsg::Commit(c) => {
                buf.push(2);
                c.encode(buf);
            }
            XpMsg::Reply(r) => {
                buf.push(3);
                r.encode(buf);
            }
            XpMsg::ViewChange(vc) => {
                buf.push(4);
                vc.encode(buf);
            }
            XpMsg::NewView(nv) => {
                buf.push(5);
                nv.encode(buf);
            }
            XpMsg::Update(u) => {
                buf.push(6);
                u.encode(buf);
            }
            XpMsg::Heartbeat(h) => {
                buf.push(7);
                h.encode(buf);
            }
            XpMsg::LazyUpdate { entries } => {
                buf.push(8);
                entries.encode(buf);
            }
            XpMsg::StateFetch { from_slot, to_slot } => {
                buf.push(9);
                from_slot.encode(buf);
                to_slot.encode(buf);
            }
            XpMsg::StateBatch { entries } => {
                buf.push(10);
                entries.encode(buf);
            }
            XpMsg::Checkpoint(c) => {
                buf.push(11);
                c.encode(buf);
            }
            XpMsg::SyncQuery { watermark } => {
                buf.push(12);
                watermark.encode(buf);
            }
            XpMsg::SyncInfo {
                checkpoint,
                archive_from,
                frontier,
            } => {
                buf.push(13);
                match checkpoint {
                    Some(cert) => {
                        true.encode(buf);
                        cert.encode(buf);
                    }
                    None => false.encode(buf),
                }
                archive_from.encode(buf);
                frontier.encode(buf);
            }
            XpMsg::SyncFetch {
                from_slot,
                to_slot,
                proof_slot,
            } => {
                buf.push(14);
                from_slot.encode(buf);
                to_slot.encode(buf);
                proof_slot.encode(buf);
            }
            XpMsg::SyncChunk {
                entries,
                proof_slot,
            } => {
                buf.push(15);
                entries.encode(buf);
                proof_slot.encode(buf);
            }
        }
    }
}

impl Decode for XpMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::decode(r)?;
        Ok(match tag {
            0 => XpMsg::Request(Request::decode(r)?),
            1 => XpMsg::Prepare(SignedPrepare::decode(r)?),
            2 => XpMsg::Commit(SignedCommit::decode(r)?),
            3 => XpMsg::Reply(Reply::decode(r)?),
            4 => XpMsg::ViewChange(SignedViewChange::decode(r)?),
            5 => XpMsg::NewView(SignedNewView::decode(r)?),
            6 => XpMsg::Update(SignedUpdate::decode(r)?),
            7 => XpMsg::Heartbeat(SignedHeartbeat::decode(r)?),
            8 => XpMsg::LazyUpdate {
                entries: Vec::decode(r)?,
            },
            9 => XpMsg::StateFetch {
                from_slot: u64::decode(r)?,
                to_slot: u64::decode(r)?,
            },
            10 => XpMsg::StateBatch {
                entries: Vec::decode(r)?,
            },
            11 => XpMsg::Checkpoint(SignedCheckpoint::decode(r)?),
            12 => XpMsg::SyncQuery {
                watermark: u64::decode(r)?,
            },
            13 => XpMsg::SyncInfo {
                checkpoint: if bool::decode(r)? {
                    Some(CheckpointCert::decode(r)?)
                } else {
                    None
                },
                archive_from: u64::decode(r)?,
                frontier: u64::decode(r)?,
            },
            14 => XpMsg::SyncFetch {
                from_slot: u64::decode(r)?,
                to_slot: u64::decode(r)?,
                proof_slot: u64::decode(r)?,
            },
            15 => XpMsg::SyncChunk {
                entries: Vec::decode(r)?,
                proof_slot: u64::decode(r)?,
            },
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsel_types::crypto::Keychain;
    use qsel_types::encode::encode_to_vec;
    use qsel_types::ClusterConfig;

    #[test]
    fn request_digest_distinguishes() {
        let a = Request { client: ProcessId(9), op: 1, payload: 7 };
        let mut b = a.clone();
        b.payload = 8;
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn commit_embeds_prepare() {
        let cfg = ClusterConfig::new(3, 1).unwrap();
        let chain = Keychain::new(&cfg, 1);
        let batch = Batch::single(Request { client: ProcessId(9), op: 1, payload: 7 });
        let prep = chain.signer(ProcessId(1)).sign(PreparePayload {
            view: 0,
            slot: 1,
            batch: batch.clone(),
        });
        let commit = chain.signer(ProcessId(2)).sign(CommitPayload {
            view: 0,
            slot: 1,
            digest: batch.digest(),
            prepare: prep.clone(),
        });
        assert!(chain.verifier().verify(&commit).is_ok());
        assert!(chain.verifier().verify(&commit.payload.prepare).is_ok());
        // Tampering with the embedded prepare breaks the outer signature.
        let mut bad = commit.clone();
        bad.payload.prepare.payload.slot = 9;
        assert!(chain.verifier().verify(&bad).is_err());
    }

    #[test]
    fn batch_digest_distinguishes_order_and_split() {
        let a = Request { client: ProcessId(9), op: 1, payload: 7 };
        let b = Request { client: ProcessId(9), op: 2, payload: 8 };
        let ab = Batch::new(vec![a.clone(), b.clone()]);
        let ba = Batch::new(vec![b, a.clone()]);
        assert_ne!(ab.digest(), ba.digest(), "batch order is significant");
        assert_ne!(
            Batch::single(a.clone()).digest(),
            Batch::new(vec![]).digest()
        );
        // The length prefix separates a singleton batch from the bare
        // request encoding.
        assert_ne!(encode_to_vec(&Batch::single(a.clone())), encode_to_vec(&a));
        assert!(Batch::single(a).contains(ProcessId(9), 1));
    }

    #[test]
    fn kinds_and_classification() {
        let req = Request { client: ProcessId(9), op: 1, payload: 0 };
        assert_eq!(XpMsg::Request(req.clone()).kind(), "request");
        assert!(!XpMsg::Request(req).is_inter_replica());
        assert!(XpMsg::Reply(Reply { view: 0, op: 1, result: 1 }).kind() == "reply");
    }
}
