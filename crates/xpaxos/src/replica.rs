//! The XPaxos replica.
//!
//! Normal case (paper §V-A, Fig. 2): the lowest-id member of the active
//! quorum leads; it assigns slots to client requests and sends `PREPARE`s
//! to the quorum; members broadcast `COMMIT`s (which embed the `PREPARE`,
//! per the paper's protocol change) and decide once every non-leader
//! member's matching `COMMIT` arrived.
//!
//! Failure-detector integration (§V-A): receiving or sending a `PREPARE`
//! issues expectations for the `COMMIT`s of every other quorum member —
//! unless a member's `COMMIT` already arrived (first subtlety). A `COMMIT`
//! overtaking its `PREPARE` (Fig. 3) makes the receiver commit anyway and
//! expect the `PREPARE` from the leader (third subtlety). Malformed
//! `COMMIT`s and leader equivocation raise `⟨DETECTED⟩` (second subtlety).
//! An authenticated message is shown to the detector (which only borrows
//! it), then dispatched (`⟨DELIVER⟩`), then the suspicion change the
//! detector computed for it is handled (`⟨SUSPECTED⟩`).
//!
//! Quorum changes (§V-B): with [`QuorumPolicy::Enumeration`] the replica
//! round-robins through all `C(n, f)` quorums — the paper's XPaxos
//! baseline. With [`QuorumPolicy::Selection`] a [`QuorumSelection`] module
//! drives it: on `⟨QUORUM, Q⟩` the replica jumps straight to the view
//! whose group is `Q`, suspecting every quorum ordered before it, and
//! invokes `⟨CANCEL⟩` on the failure detector.

use std::collections::{BTreeMap, BTreeSet};

use qsel::{QsOutput, QuorumSelection};
use qsel_detector::{Expected, FailureDetector, FdConfig, PollSchedule};
use qsel_obs::{TraceEvent, TraceSink};
use qsel_simnet::{Context, SimDuration, TimerId};
use qsel_types::crypto::{Keychain, Signer, Verifier};
use qsel_types::{thresholds, CheckpointPayload, ClusterConfig, ProcessId, ProcessSet, Quorum};

use crate::log::Log;
use crate::messages::{
    Batch, CheckpointCert, CommitPayload, CompactEntry, DecidedEntry, HeartbeatPayload,
    NewViewPayload, PreparePayload, Reply, Request, SignedCheckpoint, SignedCommit, SignedNewView,
    SignedPrepare, SignedViewChange, ViewChangePayload, XpMsg,
};
use crate::policy::{BatchPolicy, CheckpointPolicy, ViewPolicy};

const TIMER_FD_POLL: TimerId = TimerId(1);
const TIMER_HEARTBEAT: TimerId = TimerId(2);
const TIMER_LAZY: TimerId = TimerId(3);
/// Leader-side batch-delay timer ([`BatchPolicy::max_batch_delay`]).
const TIMER_BATCH: TimerId = TimerId(4);
const TIMER_VC_BASE: u64 = 1000;
/// Generation-tagged state-transfer retry timers live far above the
/// view-change band so the two generation counters can never collide.
const TIMER_SYNC_BASE: u64 = 1_000_000_000;
/// Slots per state-transfer round trip (both compact and certified).
const SYNC_CHUNK: u64 = 512;
/// Unanswered rounds tolerated before the current donor is abandoned.
const SYNC_MAX_RETRIES: u32 = 3;
/// Cap on distinct slots with buffered checkpoint votes (a Byzantine
/// flood of far-future votes must not grow memory; honest votes cluster
/// near the frontier, so the farthest-future slots are evicted first).
const MAX_VOTE_SLOTS: usize = 1024;

/// How the replica chooses the next quorum after a suspicion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuorumPolicy {
    /// The paper's XPaxos baseline: try quorums one after the other in
    /// enumeration order.
    Enumeration,
    /// Quorum Selection (Algorithm 1) picks the quorum; the replica jumps
    /// to its view directly.
    Selection,
}

/// Replica configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Quorum-change policy.
    pub policy: QuorumPolicy,
    /// Failure-detector timeouts.
    pub fd: FdConfig,
    /// Stall timeout for a pending view change (used by the enumeration
    /// policy, whose only recovery mechanism is "try the next quorum").
    pub view_change_timeout: SimDuration,
    /// Heartbeat period among active-quorum members (paper §II assumes
    /// heartbeat-style traffic so omission/crash failures surface even
    /// when no client operations are in flight).
    pub heartbeat_period: SimDuration,
    /// Period of the leader's lazy replication of decided entries to
    /// passive replicas (XPaxos's background replication). Keeps every
    /// log near the frontier so view changes never replay history.
    pub lazy_period: SimDuration,
    /// Leader-side request batching and commit pipelining. The default is
    /// the passthrough identity (size 1, depth 1): byte-identical traced
    /// behaviour to the unbatched protocol.
    pub batch: BatchPolicy,
    /// Checkpointing, log compaction, and incremental state transfer.
    /// The default (interval 0) disables the subsystem entirely, keeping
    /// traced behaviour byte-identical to the pre-checkpoint protocol.
    pub checkpoint: CheckpointPolicy,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            policy: QuorumPolicy::Selection,
            fd: FdConfig {
                initial_timeout: SimDuration::millis(2),
                ..FdConfig::default()
            },
            view_change_timeout: SimDuration::millis(10),
            heartbeat_period: SimDuration::millis(3),
            lazy_period: SimDuration::millis(10),
            batch: BatchPolicy::default(),
            checkpoint: CheckpointPolicy::default(),
        }
    }
}

/// Counters for experiments and assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaStats {
    /// View changes initiated or joined.
    pub view_changes: u64,
    /// Views successfully installed (NEW-VIEW processed).
    pub views_installed: u64,
    /// Slots decided.
    pub decided: u64,
    /// Requests executed.
    pub executed: u64,
    /// `⟨DETECTED⟩` events raised (commission failures proven).
    pub detections: u64,
    /// Client requests forwarded to the leader.
    pub forwarded: u64,
    /// Crash-recoveries performed ([`Replica::handle_recover`]).
    pub recoveries: u64,
    /// Stable checkpoints installed (`f+1` matching signatures seen).
    pub checkpoints_stable: u64,
    /// Incremental state transfers started.
    pub state_transfers: u64,
    /// Transfer chunks rejected (failed proof / malformed range).
    pub chunks_rejected: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Normal,
    ViewChange { target: u64 },
}

/// What a donor said it can serve (checkpoint already verified).
/// The messages a replica tells its failure detector to expect: one
/// variant per expectation label, carrying the fields it matches on.
#[derive(Clone, Copy, Debug)]
enum XpExpect {
    /// Any heartbeat from an effective-quorum member.
    Heartbeat,
    /// The leader's PREPARE in `view` (or any COMMIT, whose embedded
    /// PREPARE overtook it) for a batch holding the forwarded request.
    PrepareFor {
        view: u64,
        client: ProcessId,
        op: u64,
    },
    /// The leader's PREPARE for a slot whose COMMIT arrived first.
    OvertakenPrepare { view: u64, slot: u64 },
    /// A member's COMMIT for the slot.
    Commit { view: u64, slot: u64 },
    /// A member's VIEW-CHANGE for `target` or a later view.
    ViewChange { target: u64 },
    /// The new leader's NEW-VIEW for `target` or a later view.
    NewView { target: u64 },
    /// A state batch answering the fetch a recovering replica sent.
    RecoverState,
    /// A state batch answering the fetch a NEW-VIEW's base required.
    StateBatch,
}

impl Expected<XpMsg> for XpExpect {
    fn is_met_by(&self, m: &XpMsg) -> bool {
        match *self {
            XpExpect::Heartbeat => matches!(m, XpMsg::Heartbeat(_)),
            XpExpect::PrepareFor { view, client, op } => {
                matches!(
                    m,
                    XpMsg::Prepare(sp)
                        if sp.payload.view == view
                            && sp.payload.batch.contains(client, op)
                ) || matches!(
                    m,
                    XpMsg::Commit(c)
                        if c.payload.prepare.payload.batch.contains(client, op)
                )
            }
            XpExpect::OvertakenPrepare { view, slot } => matches!(
                m,
                XpMsg::Prepare(p) if p.payload.view == view && p.payload.slot == slot
            ),
            XpExpect::Commit { view, slot } => matches!(
                m,
                XpMsg::Commit(c) if c.payload.view == view && c.payload.slot == slot
            ),
            XpExpect::ViewChange { target } => matches!(
                m,
                XpMsg::ViewChange(v) if v.payload.target_view >= target
            ),
            XpExpect::NewView { target } => {
                matches!(m, XpMsg::NewView(nv) if nv.payload.view >= target)
            }
            XpExpect::RecoverState | XpExpect::StateBatch => {
                matches!(m, XpMsg::StateBatch { .. })
            }
        }
    }

    fn label(&self) -> &'static str {
        match self {
            XpExpect::Heartbeat => "heartbeat",
            XpExpect::PrepareFor { .. } => "prepare-for-request",
            XpExpect::OvertakenPrepare { .. } => "overtaken-prepare",
            XpExpect::Commit { .. } => "commit",
            XpExpect::ViewChange { .. } => "view-change",
            XpExpect::NewView { .. } => "new-view",
            XpExpect::RecoverState => "recover-state",
            XpExpect::StateBatch => "state-batch",
        }
    }
}

#[derive(Clone, Debug)]
struct PeerSyncInfo {
    /// The donor's stable checkpoint, kept only if it verified.
    checkpoint: Option<CheckpointCert>,
    /// First slot the donor can serve batch content for.
    archive_from: u64,
    /// The donor's executed-prefix length.
    frontier: u64,
}

/// The recovery state machine (see [`Replica::begin_sync`]).
#[derive(Clone, Debug)]
enum SyncState {
    /// Not transferring.
    Idle,
    /// `SyncQuery` broadcast, collecting `SyncInfo` answers.
    Probing {
        /// Probe rounds completed without a usable answer (backoff input).
        retries: u32,
    },
    /// Pulling the gap from a chosen donor.
    Fetching {
        /// The donor every request in this attempt goes to.
        donor: ProcessId,
        /// Certified payload compact proofs verify against (compact mode).
        ckpt: Option<CheckpointPayload>,
        /// MMR size proofs are generated at; compact entries cover
        /// `[watermark, proof_slot)`. Zero when no compact segment.
        proof_slot: u64,
        /// The frontier this transfer is catching up to.
        target: u64,
        /// Unanswered request rounds at the current donor.
        retries: u32,
        /// `(slot, digest)` recomputed when the certified boundary was
        /// crossed — emitted with `StateTransferDone`.
        boundary: Option<(u64, u64)>,
    },
}

/// An XPaxos replica (drive it through [`crate::harness::XpActor`] or call
/// the `handle_*` methods from a custom host).
///
/// Every handler writes its sends and timers straight into the host's
/// [`Context`], in the order it produces them; each `handle_*` entry point
/// ends by arming the failure-detector poll its new deadlines need.
pub struct Replica {
    cfg: ClusterConfig,
    rcfg: ReplicaConfig,
    me: ProcessId,
    signer: Signer,
    verifier: Verifier,
    views: ViewPolicy,
    fd: FailureDetector<XpMsg, XpExpect>,
    /// The `TIMER_FD_POLL` timers in flight.
    polls: PollSchedule,
    /// The policy [`PollSchedule`] replaced, kept as the test oracle: arm
    /// a poll after every callback.
    #[cfg(test)]
    arm_every_flush: bool,
    /// The pending-request dedup the key index replaced, kept as the test
    /// oracle: a linear [`holds`] scan of the buffer.
    #[cfg(test)]
    linear_dedup: bool,
    qs: Option<QuorumSelection>,
    log: Log,
    view: u64,
    phase: Phase,
    next_slot: u64,
    vc_gen: u64,
    /// VIEW-CHANGE messages by target view, then signer. Ordered maps:
    /// the new leader folds these into NEW-VIEW re-proposals, and a
    /// leader-equivocation tie (two valid prepares for one slot in the
    /// same view) must resolve identically on every replica. Only
    /// targets above `view` are kept: a view change never targets an
    /// installed view again.
    collected_vc: BTreeMap<u64, BTreeMap<ProcessId, SignedViewChange>>,
    /// Whether the NEW-VIEW expectation for the current target is armed.
    nv_expected: bool,
    /// Client requests buffered mid view change, in arrival order (the
    /// replay order after the next install), with their `(client, op)`
    /// keys indexed beside them so a retransmission is found in O(log n).
    pending_requests: Vec<Request>,
    pending_keys: BTreeSet<(ProcessId, u64)>,
    /// Leader-side batch accumulator (non-passthrough policies only):
    /// requests waiting for the next batch to close.
    pending_batch: Vec<Request>,
    /// When the oldest pending request's batch must close even if not
    /// full ([`BatchPolicy::max_batch_delay`]).
    batch_deadline: Option<qsel_simnet::SimTime>,
    /// PREPARE/COMMIT traffic that arrived mid view change (or for a view
    /// ahead of ours), replayed once the next view is installed so brief
    /// view-change windows do not turn into false omission suspicions at
    /// the senders.
    pending_protocol: std::collections::VecDeque<XpMsg>,
    /// First decided slot not yet shipped by lazy replication (leader).
    lazy_sent: u64,
    hb_seq: u64,
    /// Checkpoint votes by slot, then signer (ordered: a stable
    /// certificate's signature order must not leak map iteration order
    /// into message bytes).
    ckpt_votes: BTreeMap<u64, BTreeMap<ProcessId, SignedCheckpoint>>,
    /// Newest stable checkpoint certificate (served to recovering peers).
    stable_ckpt: Option<CheckpointCert>,
    /// Recovery state machine.
    sync: SyncState,
    /// Generation tag for sync retry timers: bumped on every request or
    /// phase change, so a stale timer fire is recognised and ignored.
    sync_gen: u64,
    /// `SyncInfo` answers collected during the current recovery.
    sync_infos: BTreeMap<ProcessId, PeerSyncInfo>,
    /// Donors that served bad chunks or timed out this recovery.
    sync_failed: BTreeSet<ProcessId>,
    stats: ReplicaStats,
    view_history: Vec<(qsel_simnet::SimTime, u64)>,
    trace: TraceSink,
}

/// Whether `reqs` already holds a request with `req`'s `(client, op)`.
fn holds(reqs: &[Request], req: &Request) -> bool {
    reqs.iter()
        .any(|r| r.client == req.client && r.op == req.op)
}

/// First 8 bytes of a request digest — the compact identity traced with
/// `Executed` events, which the replay analyzer compares across replicas
/// for per-slot agreement.
fn digest_fingerprint(d: &qsel_types::crypto::Digest) -> u64 {
    // Infallible: `Digest.0` is `[u8; 32]`, so the first eight bytes
    // always exist — destructure instead of a fallible slice conversion.
    let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = d.0;
    u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
}

impl Replica {
    /// Creates a replica.
    pub fn new(
        cfg: ClusterConfig,
        me: ProcessId,
        chain: &Keychain,
        rcfg: ReplicaConfig,
    ) -> Self {
        let qs = match rcfg.policy {
            QuorumPolicy::Selection => Some(QuorumSelection::new(
                cfg,
                me,
                chain.signer(me),
                chain.verifier(),
            )),
            QuorumPolicy::Enumeration => None,
        };
        let mut log = Log::new();
        log.set_checkpoint_interval(rcfg.checkpoint.interval);
        Replica {
            me,
            signer: chain.signer(me),
            verifier: chain.verifier(),
            views: ViewPolicy::new(&cfg),
            fd: FailureDetector::new(me, cfg.n(), rcfg.fd.clone()),
            polls: PollSchedule::new(),
            #[cfg(test)]
            arm_every_flush: false,
            #[cfg(test)]
            linear_dedup: false,
            qs,
            log,
            view: 0,
            phase: Phase::Normal,
            next_slot: 0,
            vc_gen: 0,
            collected_vc: BTreeMap::new(),
            nv_expected: false,
            pending_requests: Vec::new(),
            pending_keys: BTreeSet::new(),
            pending_batch: Vec::new(),
            batch_deadline: None,
            pending_protocol: std::collections::VecDeque::new(),
            lazy_sent: 0,
            hb_seq: 0,
            ckpt_votes: BTreeMap::new(),
            stable_ckpt: None,
            sync: SyncState::Idle,
            sync_gen: 0,
            sync_infos: BTreeMap::new(),
            sync_failed: BTreeSet::new(),
            stats: ReplicaStats::default(),
            view_history: Vec::new(),
            trace: TraceSink::disabled(),
            cfg,
            rcfg,
        }
    }

    /// Installs a trace sink, forwarded to the embedded failure detector
    /// and quorum-selection module so all three layers share one buffer
    /// and ambient clock.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.fd.set_trace_sink(sink.clone());
        if let Some(qs) = &mut self.qs {
            qs.set_trace_sink(sink.clone());
        }
        self.trace = sink;
    }

    // ------------------------------------------------------------------
    // Public inspection API
    // ------------------------------------------------------------------

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether the replica is in normal operation (not mid view change).
    pub fn is_normal(&self) -> bool {
        self.phase == Phase::Normal
    }

    /// The active quorum of the current view.
    pub fn active_quorum(&self) -> Quorum {
        self.views.group(self.view)
    }

    /// The current leader.
    pub fn leader(&self) -> ProcessId {
        self.views.leader(self.view)
    }

    /// The replicated log.
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// The quorum-selection module, in [`QuorumPolicy::Selection`] mode.
    pub fn quorum_selection(&self) -> Option<&QuorumSelection> {
        self.qs.as_ref()
    }

    /// Installed views with their installation times (diagnosis aid).
    pub fn view_history(&self) -> &[(qsel_simnet::SimTime, u64)] {
        &self.view_history
    }

    /// Failure-detector statistics.
    pub fn fd_stats(&self) -> qsel_detector::FdStats {
        self.fd.stats()
    }

    /// This replica's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Slot of the newest stable checkpoint (0 when none yet).
    pub fn stable_checkpoint_slot(&self) -> u64 {
        self.stable_ckpt
            .as_ref()
            .and_then(|c| c.payload())
            .map_or(0, |p| p.slot)
    }

    /// Client requests buffered for replay after the next view install.
    pub fn pending_requests_len(&self) -> usize {
        self.pending_requests.len()
    }

    /// Whether an incremental state transfer is currently in flight.
    pub fn is_syncing(&self) -> bool {
        !matches!(self.sync, SyncState::Idle)
    }

    /// Target views for which VIEW-CHANGE messages are held, ascending.
    pub fn collected_view_change_targets(&self) -> impl Iterator<Item = u64> + '_ {
        self.collected_vc.keys().copied()
    }

    // ------------------------------------------------------------------
    // Event entry points (called by the harness actor)
    // ------------------------------------------------------------------

    /// Starts the replica (arms the heartbeat and failure-detector poll
    /// timers).
    pub fn handle_start(&mut self, ctx: &mut Context<'_, XpMsg>) {
        self.heartbeat_tick(ctx);
        ctx.set_timer(self.rcfg.lazy_period, TIMER_LAZY);
        self.arm_poll(ctx);
    }

    /// Recovers after a benign crash (crash-recovery model with stable
    /// storage): the replica kept its durable protocol state, but its
    /// timers died with the process and the cluster may have moved on
    /// while it was down. Pre-crash expectations are cancelled — their
    /// messages may have been delivered to the void while we were dead, so
    /// letting them expire would accuse correct peers. The periodic
    /// machinery is re-armed exactly as in [`Replica::handle_start`], and
    /// the decided log suffix is re-requested from every peer so the
    /// replica rejoins at the commit frontier instead of waiting for lazy
    /// replication to find it.
    pub fn handle_recover(&mut self, ctx: &mut Context<'_, XpMsg>) {
        self.stats.recoveries += 1;
        let now = ctx.now();
        self.polls.reset();
        let suspected = self.fd.cancel_all(now);
        self.on_suspected(ctx, suspected);
        self.heartbeat_tick(ctx);
        ctx.set_timer(self.rcfg.lazy_period, TIMER_LAZY);
        // The batch-delay timer died with the process; re-open the window
        // for any requests that were waiting in the accumulator.
        if !self.pending_batch.is_empty() && self.rcfg.batch.max_batch_delay > SimDuration::ZERO {
            self.batch_deadline = Some(now + self.rcfg.batch.max_batch_delay);
            ctx.set_timer(self.rcfg.batch.max_batch_delay, TIMER_BATCH);
        }
        self.pump_batches(ctx);
        if self.rcfg.checkpoint.enabled() {
            // Incremental recovery: probe the cluster for a stable
            // checkpoint and the serveable log ranges, then pull only the
            // gap — O(gap) messages instead of a blanket full-suffix
            // broadcast to every peer. The retry/backoff machinery lives
            // in the sync state machine (its timers died with us).
            self.sync = SyncState::Idle;
            self.begin_sync(ctx);
        } else {
            // Every correct replica answers a StateFetch (possibly with an
            // empty batch), so the expectation is accuracy-safe — and a
            // peer that crashed in the meantime is rightly suspected.
            let from_slot = self.log.watermark();
            self.fetch_state(
                ctx,
                self.cfg.processes(),
                from_slot,
                u64::MAX,
                XpExpect::RecoverState,
            );
        }
        // A view change interrupted by the crash is re-entered: the peers
        // may have completed it (or moved past it) while we were down and
        // will never re-send its messages. Re-issuing our VIEW-CHANGE and
        // re-arming its expectations is what pulls us forward — either the
        // quorum answers, or the resulting suspicions steer us to a view
        // change the live replicas will join.
        if let Phase::ViewChange { target } = self.phase {
            self.start_view_change(ctx, target);
        }
        self.arm_poll(ctx);
    }

    /// Handles a delivered message. `link_sender` is the network-level
    /// sender, used only to route state-transfer responses (the protocol
    /// messages inside are self-authenticating).
    ///
    /// P1: every wire variant is routed by name, never by a wildcard arm.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn handle_message(
        &mut self,
        ctx: &mut Context<'_, XpMsg>,
        link_sender: ProcessId,
        msg: XpMsg,
    ) {
        match msg {
            XpMsg::Request(req) => {
                self.on_request(ctx, req);
            }
            XpMsg::Reply(_) => {} // replicas ignore replies
            XpMsg::StateFetch { from_slot, to_slot } => {
                self.on_state_fetch(ctx, link_sender, from_slot, to_slot);
            }
            XpMsg::LazyUpdate { entries } | XpMsg::StateBatch { entries } => {
                // Certificates are self-authenticating; adopt what
                // verifies. A StateBatch additionally fulfils the fetch
                // expectation, which flows through the detector below.
                self.adopt_entries(ctx, entries);
                let marker = XpMsg::StateBatch { entries: vec![] };
                let suspected = self.fd.on_receive(ctx.now(), link_sender, &marker);
                self.on_suspected(ctx, suspected);
                self.sync_progress(ctx);
            }
            XpMsg::SyncQuery { watermark } => {
                self.on_sync_query(ctx, link_sender, watermark);
            }
            XpMsg::SyncInfo {
                checkpoint,
                archive_from,
                frontier,
            } => {
                self.on_sync_info(ctx, link_sender, checkpoint, archive_from, frontier);
            }
            XpMsg::SyncFetch {
                from_slot,
                to_slot,
                proof_slot,
            } => {
                self.on_sync_fetch(ctx, link_sender, from_slot, to_slot, proof_slot);
            }
            XpMsg::SyncChunk {
                entries,
                proof_slot,
            } => {
                self.on_sync_chunk(ctx, link_sender, entries, proof_slot);
            }
            // Replica-to-replica traffic is authenticated and observed by
            // the failure detector (Fig. 1), then delivered here, then the
            // suspicion change the detector computed for it is handled.
            // Spelled out per variant (no `_` arm) so adding a wire message
            // forces a routing decision here.
            signed @ (XpMsg::Prepare(_)
            | XpMsg::Commit(_)
            | XpMsg::ViewChange(_)
            | XpMsg::NewView(_)
            | XpMsg::Update(_)
            | XpMsg::Heartbeat(_)
            | XpMsg::Checkpoint(_)) => {
                if let Some(origin) = self.authenticate(&signed) {
                    let suspected = self.fd.on_receive(ctx.now(), origin, &signed);
                    #[expect(
                        clippy::wildcard_enum_match_arm,
                        reason = "the `_` arm is Heartbeat: the enclosing arm binds only the seven signed variants"
                    )]
                    match signed {
                        XpMsg::Prepare(sp) => self.on_prepare(ctx, sp),
                        XpMsg::Commit(sc) => self.on_commit(ctx, sc),
                        XpMsg::ViewChange(vc) => self.on_view_change(ctx, vc),
                        XpMsg::NewView(nv) => self.on_new_view(ctx, nv),
                        XpMsg::Update(u) => {
                            if let Some(qs) = &mut self.qs {
                                let qs_out = qs.on_update(u);
                                self.pump_qs(ctx, qs_out);
                            }
                        }
                        XpMsg::Checkpoint(sc) => self.on_checkpoint(ctx, sc),
                        // A heartbeat only meets expectations.
                        _ => {}
                    }
                    self.on_suspected(ctx, suspected);
                }
            }
        }
        self.arm_poll(ctx);
    }

    /// Handles a timer event.
    pub fn handle_timer(&mut self, ctx: &mut Context<'_, XpMsg>, timer: TimerId) {
        match timer {
            TIMER_FD_POLL => {
                let suspected = self.fd.poll(ctx.now());
                self.on_suspected(ctx, suspected);
            }
            TIMER_HEARTBEAT => {
                self.heartbeat_tick(ctx);
            }
            TIMER_LAZY => {
                self.lazy_tick(ctx);
            }
            TIMER_BATCH => {
                // The delay window of the oldest pending request expired;
                // `pump_batches` closes the undersized batch if a pipeline
                // slot is free (stale fires are harmless: the deadline
                // check inside simply does not force a close).
                self.pump_batches(ctx);
            }
            TimerId(id) if id >= TIMER_SYNC_BASE => {
                // State-transfer retry timer: only the generation armed
                // for the in-flight request/probe is live; anything else
                // is a stale fire from an answered round.
                if id - TIMER_SYNC_BASE == self.sync_gen {
                    self.on_sync_timeout(ctx);
                }
            }
            TimerId(id) if id >= TIMER_VC_BASE => {
                // View-change stall timer (enumeration policy): if the
                // targeted view never activated, try the next quorum.
                let gen = id - TIMER_VC_BASE;
                if gen == self.vc_gen
                    && self.rcfg.policy == QuorumPolicy::Enumeration
                {
                    if let Phase::ViewChange { target } = self.phase {
                        // No view lies above `u64::MAX`: stay put.
                        if let Some(next) = target.checked_add(1) {
                            self.start_view_change(ctx, next);
                        }
                    }
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "timers are armed only by this replica; an unknown id is a harness bug best surfaced loudly"
            )]
            other => unreachable!("unknown timer {other:?}"),
        }
        self.arm_poll(ctx);
    }

    /// Periodic liveness traffic among the members of the *effective*
    /// view's quorum (the pending target during a view change): expect a
    /// heartbeat from every other member, then send our own. This keeps a
    /// crashed or omitting member continuously suspected even while view
    /// changes are in flight — without it, a view change targeting a
    /// quorum with a dead member would erase the very suspicion that
    /// should steer the selection away from it. Passive replicas stay
    /// silent.
    fn heartbeat_tick(&mut self, ctx: &mut Context<'_, XpMsg>) {
        ctx.set_timer(self.rcfg.heartbeat_period, TIMER_HEARTBEAT);
        let members = *self.views.group(self.effective_view()).members();
        if !members.contains(self.me) {
            return;
        }
        for k in members.iter() {
            if k != self.me {
                self.fd
                    .arm(ctx.now(), k, SimDuration::ZERO, XpExpect::Heartbeat);
            }
        }
        self.hb_seq += 1;
        let hb = XpMsg::Heartbeat(self.signer.sign(HeartbeatPayload { seq: self.hb_seq }));
        // Send to every replica, not just our effective group: during a
        // view change different processes briefly disagree on the group,
        // and a member-set mismatch must not look like an omission fault.
        self.broadcast(ctx, || hb.clone());
    }

    /// Queues one `make()` for every other replica, in id order.
    fn broadcast(&self, ctx: &mut Context<'_, XpMsg>, make: impl Fn() -> XpMsg) {
        for k in self.cfg.processes() {
            if k != self.me {
                ctx.send(k, make());
            }
        }
    }

    // ------------------------------------------------------------------
    // Normal case
    // ------------------------------------------------------------------

    fn on_request(&mut self, ctx: &mut Context<'_, XpMsg>, req: Request) {
        let now = ctx.now();
        if self.phase != Phase::Normal {
            // Buffer and replay once the next view is installed, so a
            // view change does not cost a full client retry period.
            self.buffer_request(req);
            return;
        }
        // Executed before? Re-send the reply (client retransmission).
        if let Some(slot) = self.log.slot_of(&req) {
            if self.log.slot(slot).is_some_and(|s| s.decided) && slot < self.log.exec_cursor {
                ctx.send(
                    req.client,
                    XpMsg::Reply(Reply {
                        view: self.view,
                        op: req.op,
                        result: slot,
                    }),
                );
            }
            return; // already assigned: in flight
        }
        let leader = self.leader();
        let members = *self.active_quorum().members();
        if self.me == leader {
            if self.rcfg.batch.is_passthrough() {
                // Compatibility identity: propose immediately, one request
                // per slot, exactly as the unbatched protocol did.
                self.trace.emit(|| TraceEvent::BatchAdmitted {
                    p: self.me.0,
                    client: req.client.0,
                    op: req.op,
                });
                self.propose_batch(ctx, Batch::single(req));
                return;
            }
            if holds(&self.pending_batch, &req) {
                return; // retransmission of a request awaiting its batch
            }
            // The batch-wait clock starts here: the request is now parked
            // in the accumulator awaiting its batch.
            self.trace.emit(|| TraceEvent::BatchAdmitted {
                p: self.me.0,
                client: req.client.0,
                op: req.op,
            });
            self.pending_batch.push(req);
            if self.batch_deadline.is_none()
                && self.rcfg.batch.max_batch_delay > SimDuration::ZERO
            {
                self.batch_deadline = Some(now + self.rcfg.batch.max_batch_delay);
                ctx.set_timer(self.rcfg.batch.max_batch_delay, TIMER_BATCH);
            }
            self.pump_batches(ctx);
        } else if members.contains(self.me) {
            // Forward to the leader and expect it to prepare this request
            // (mute-leader detection). Under batching the request may share
            // its slot with others, so the expectation matches any PREPARE
            // (or overtaking COMMIT) whose batch contains it.
            self.stats.forwarded += 1;
            ctx.send(leader, XpMsg::Request(req.clone()));
            let key = XpExpect::PrepareFor {
                view: self.view,
                client: req.client,
                op: req.op,
            };
            self.fd.arm(now, leader, SimDuration::ZERO, key);
        } else {
            // Passive replica: forward without expectation (it will not
            // receive the PREPARE — only quorum members do).
            ctx.send(leader, XpMsg::Request(req));
        }
    }

    /// Signs and proposes `batch` at the next slot: PREPARE to the other
    /// quorum members, then local processing (which arms the per-member
    /// COMMIT expectations — one set per slot, so a whole batch costs the
    /// failure detector exactly one expectation event per member).
    fn propose_batch(&mut self, ctx: &mut Context<'_, XpMsg>, batch: Batch) {
        let members = *self.active_quorum().members();
        let slot = self.next_slot;
        self.next_slot += 1;
        if !self.rcfg.batch.is_passthrough() {
            let size = batch.len() as u64;
            self.trace.emit(|| TraceEvent::BatchProposed {
                p: self.me.0,
                slot,
                size,
            });
        }
        // Request-level slot binding for causal span reconstruction: one
        // event per request, in every mode (passthrough included).
        for r in batch.reqs() {
            self.trace.emit(|| TraceEvent::ReqProposed {
                p: self.me.0,
                slot,
                client: r.client.0,
                op: r.op,
            });
        }
        let sp = self.signer.sign(PreparePayload {
            view: self.view,
            slot,
            batch,
        });
        for k in members.iter() {
            if k != self.me {
                ctx.send(k, XpMsg::Prepare(sp.clone()));
            }
        }
        self.process_prepare_locally(ctx, sp);
    }

    /// Closes and proposes as many pending batches as the policy allows:
    /// while a pipeline slot is free, a batch closes once it is full, once
    /// the batch delay expired, or immediately when no delay is
    /// configured. No-op for followers, mid view change, and under the
    /// passthrough policy (whose accumulator is always empty).
    fn pump_batches(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let now = ctx.now();
        if self.phase != Phase::Normal || self.me != self.leader() {
            return;
        }
        let pol = self.rcfg.batch;
        while !self.pending_batch.is_empty() {
            if self.log.undecided_from(self.log.watermark()) >= pol.pipeline_depth {
                break; // pipeline full: wait for a decide
            }
            let full = self.pending_batch.len() >= pol.max_batch_size;
            let deadline_passed = self.batch_deadline.is_some_and(|d| d <= now);
            if !(full || deadline_passed || pol.max_batch_delay == SimDuration::ZERO) {
                break; // wait for more requests or the batch timer
            }
            let take = self.pending_batch.len().min(pol.max_batch_size);
            let reqs: Vec<Request> = self
                .pending_batch
                .drain(..take)
                // A request that gained a slot while queued (e.g. via a
                // NEW-VIEW re-proposal) must not be proposed twice.
                .filter(|r| self.log.slot_of(r).is_none())
                .collect();
            self.batch_deadline = None;
            if !self.pending_batch.is_empty() && pol.max_batch_delay > SimDuration::ZERO {
                // Re-open the delay window for the requests left behind.
                self.batch_deadline = Some(now + pol.max_batch_delay);
                ctx.set_timer(pol.max_batch_delay, TIMER_BATCH);
            }
            if reqs.is_empty() {
                continue;
            }
            self.propose_batch(ctx, Batch::new(reqs));
        }
        if self.pending_batch.is_empty() {
            self.batch_deadline = None;
        }
    }

    fn on_prepare(&mut self, ctx: &mut Context<'_, XpMsg>, sp: SignedPrepare) {
        if self.phase != Phase::Normal || sp.payload.view > self.view {
            self.stash(XpMsg::Prepare(sp));
            return;
        }
        if sp.payload.view != self.view {
            return; // stale view
        }
        if sp.signer != self.leader() || !self.active_quorum().contains(self.me) {
            return;
        }
        self.process_prepare_locally(ctx, sp);
    }

    fn on_commit(&mut self, ctx: &mut Context<'_, XpMsg>, sc: SignedCommit) {
        let now = ctx.now();
        // Malformed COMMIT: authenticated but without a valid embedded
        // PREPARE → the sender is detected (paper §V-A).
        let embedded_ok = self.verify_prepare_once(&sc.payload.prepare)
            && sc.payload.prepare.payload.view == sc.payload.view
            && sc.payload.prepare.payload.slot == sc.payload.slot
            && sc.payload.prepare.signer == self.views.leader(sc.payload.view)
            && sc.payload.digest == sc.payload.prepare.payload.batch.digest();
        if !embedded_ok {
            self.detect(ctx, sc.signer);
            return;
        }
        if sc.payload.slot < self.log.gc_floor() {
            // The slot was compacted below a stable checkpoint: its
            // agreement record is gone, so this late COMMIT must not be
            // re-admitted as a fresh slot (it would re-decide below the
            // GC floor and issue expectations no decided member answers).
            return;
        }
        if self.phase != Phase::Normal || sc.payload.view > self.view {
            self.stash(XpMsg::Commit(sc));
            return;
        }
        if sc.payload.view != self.view || !self.active_quorum().contains(self.me) {
            return; // stale view, or we are passive
        }
        let slot = sc.payload.slot;
        // Equivocation: a valid PREPARE different from the one we accepted
        // in the same view (paper §V-A: "it issues a ⟨DETECTED⟩ event for
        // the leader").
        if let Some(mine) = self.log.prepare_at(slot) {
            if mine.payload.view == sc.payload.view && mine.payload != sc.payload.prepare.payload
            {
                self.detect(ctx, self.views.leader(sc.payload.view));
                return;
            }
        }
        if self.log.slot(slot).is_some_and(|s| s.decided) {
            // Already decided: record and stop. In particular do NOT
            // answer a COMMIT with our own COMMIT — decided members would
            // echo commits at each other indefinitely.
            self.log.record_commit(slot, sc);
            return;
        }
        let had_prepare = self.log.prepare_at(slot).is_some();
        if !had_prepare {
            // Fig. 3: the COMMIT overtook the PREPARE — adopt the embedded
            // prepare first so this COMMIT is recorded (otherwise we would
            // issue an expectation for a commit we already consumed).
            self.log.accept_prepare(sc.payload.prepare.clone());
        }
        let fresh_vote = !self
            .log
            .slot(slot)
            .is_some_and(|s| s.commits.contains_key(&sc.signer));
        self.log.record_commit(slot, sc.clone());
        if fresh_vote {
            // Quorum-formation timing: a previously-unseen vote for an
            // undecided slot (the first-to-last gap is the straggler gap).
            let have = self.log.slot(slot).map_or(0, |s| s.commits.len() as u64);
            let from = sc.signer.0;
            self.trace.emit(|| TraceEvent::CommitVote {
                p: self.me.0,
                slot,
                from,
                have,
            });
        }
        self.process_prepare_locally(ctx, sc.payload.prepare.clone());
        if !had_prepare {
            // Fig. 3: COMMIT overtook the PREPARE — expect the PREPARE
            // from the leader (third subtlety).
            let view = sc.payload.view;
            let leader = self.views.leader(view);
            let key = XpExpect::OvertakenPrepare { view, slot };
            self.fd.arm(now, leader, SimDuration::ZERO, key);
        }
        self.try_decide_and_execute(ctx, slot);
    }

    /// Accepts a PREPARE into the log, sends our COMMIT (followers),
    /// issues COMMIT expectations for the other members, and tries to
    /// decide. Shared by the leader's own proposal, a follower receiving
    /// a PREPARE, a COMMIT-embedded PREPARE, and NEW-VIEW re-proposals.
    // lint: allow(S1, every caller holds a verified prepare: authenticate, on_commit embedded-check, or our own signature)
    fn process_prepare_locally(&mut self, ctx: &mut Context<'_, XpMsg>, sp: SignedPrepare) {
        let slot = sp.payload.slot;
        if slot < self.log.gc_floor() {
            return; // compacted below a stable checkpoint — old news
        }
        let view = sp.payload.view;
        let leader = self.views.leader(view);
        let members = *self.views.group(view).members();
        if let Some(existing) = self.log.slot(slot) {
            if existing.decided {
                if existing.prepare.payload.batch == sp.payload.batch {
                    // Re-proposal of a decided slot: help the others decide.
                    if self.me != leader {
                        self.send_commit(ctx, members, sp);
                    }
                } else {
                    // A different batch for a decided slot can only come
                    // from a misbehaving leader.
                    self.detect(ctx, leader);
                }
                return;
            }
            if existing.prepare.payload.view == view && existing.prepare.payload != sp.payload {
                self.detect(ctx, leader);
                return;
            }
        }
        if !self.log.accept_prepare(sp.clone()) {
            return; // older-view prepare; ignore
        }
        if self.me != leader && !self.log.slot(slot).is_some_and(|s| s.committed_by_us) {
            let commit = self.send_commit(ctx, members, sp);
            self.log.mark_committed_by_us(slot);
            // Keep our own signed commit so decided slots carry a full
            // transferable certificate.
            self.log.record_commit(slot, commit);
        }
        // Expectations for the other members' COMMITs — skipping members
        // whose COMMIT already arrived (paper's first subtlety).
        for k in members.iter() {
            if k == self.me || k == leader {
                continue;
            }
            let already = self
                .log
                .slot(slot)
                .is_some_and(|s| s.commits.contains_key(&k));
            if already {
                continue;
            }
            let key = XpExpect::Commit { view, slot };
            self.fd.arm(ctx.now(), k, SimDuration::ZERO, key);
        }
        self.try_decide_and_execute(ctx, slot);
    }

    /// Signs our COMMIT for `sp` and sends it to the other `members`, in id
    /// order.
    // lint: allow(S1, called only by process_prepare_locally, whose callers hold a verified prepare)
    fn send_commit(
        &self,
        ctx: &mut Context<'_, XpMsg>,
        members: ProcessSet,
        sp: SignedPrepare,
    ) -> SignedCommit {
        let commit = self.signer.sign(CommitPayload {
            view: sp.payload.view,
            slot: sp.payload.slot,
            digest: sp.payload.batch.digest(),
            prepare: sp,
        });
        for k in members.iter() {
            if k != self.me {
                ctx.send(k, XpMsg::Commit(commit.clone()));
            }
        }
        commit
    }

    fn try_decide_and_execute(&mut self, ctx: &mut Context<'_, XpMsg>, slot: u64) {
        let quorum = self.views.group(self.view);
        let leader = self.views.leader(self.view);
        if self
            .log
            .try_decide(slot, quorum.members(), leader, self.me)
        {
            self.stats.decided += 1;
            self.trace.emit(|| TraceEvent::Decided {
                p: self.me.0,
                slot,
            });
            if !self.rcfg.batch.is_passthrough() {
                if let Some(sp) = self.log.prepare_at(slot) {
                    let batch = &sp.payload.batch;
                    self.trace.emit(|| TraceEvent::BatchCommitted {
                        p: self.me.0,
                        slot,
                        size: batch.len() as u64,
                        digest: digest_fingerprint(&batch.digest()),
                    });
                }
            }
            // A decided slot frees a pipeline stage: the next batch may
            // close now.
            self.pump_batches(ctx);
        }
        self.execute_and_reply(ctx);
    }

    /// Executes every slot that became ready, answers the clients, and
    /// signs any checkpoint the execution crossed.
    fn execute_and_reply(&mut self, ctx: &mut Context<'_, XpMsg>) {
        for (s, req) in self.log.execute_ready() {
            self.stats.executed += 1;
            self.trace.emit(|| TraceEvent::Executed {
                p: self.me.0,
                slot: s,
                digest: digest_fingerprint(&req.digest()),
            });
            self.trace.emit(|| TraceEvent::ReplySent {
                p: self.me.0,
                client: req.client.0,
                op: req.op,
                slot: s,
            });
            ctx.send(
                req.client,
                XpMsg::Reply(Reply {
                    view: self.view,
                    op: req.op,
                    result: s,
                }),
            );
        }
        self.pump_checkpoints(ctx);
    }

    // ------------------------------------------------------------------
    // View change
    // ------------------------------------------------------------------

    fn effective_view(&self) -> u64 {
        match self.phase {
            Phase::Normal => self.view,
            Phase::ViewChange { target } => target,
        }
    }

    fn start_view_change(&mut self, ctx: &mut Context<'_, XpMsg>, target: u64) {
        let now = ctx.now();
        debug_assert!(target > self.view);
        self.stats.view_changes += 1;
        self.trace.emit(|| TraceEvent::ViewChangeStart {
            p: self.me.0,
            target,
        });
        self.drain_pending_batch();
        self.phase = Phase::ViewChange { target };
        self.vc_gen += 1;
        self.nv_expected = false;
        // §V-B: cancel expectations — processes may legitimately stop
        // sending expected PREPARE/COMMIT messages during a view change.
        let suspected = self.fd.cancel_all(now);
        self.on_suspected(ctx, suspected);
        let watermark = self.log.watermark();
        let vc = self.signer.sign(ViewChangePayload {
            target_view: target,
            watermark,
            prepared: self.log.prepared_entries_from(watermark),
        });
        self.broadcast(ctx, || XpMsg::ViewChange(vc.clone()));
        self.collected_vc
            .entry(target)
            .or_default()
            .insert(self.me, vc);
        // Every replica expects the VIEW-CHANGE of every target-quorum
        // member it has not yet heard from. This attributes a stalled view
        // change to the *culprit member* rather than to the (possibly
        // correct and merely blocked) new leader — keeping the failure
        // detector accurate (§IV-B accuracy requirements).
        let members = *self.views.group(target).members();
        let collected = self.collected_vc.entry(target).or_default();
        for k in members.iter() {
            if k == self.me || collected.contains_key(&k) {
                continue;
            }
            // Any VIEW-CHANGE for this or a *later* target proves the
            // member is alive and participating (it may legitimately have
            // jumped ahead; we will join it when its message arrives).
            let min = self.rcfg.view_change_timeout;
            self.fd.arm(now, k, min, XpExpect::ViewChange { target });
        }
        self.progress_view_change(ctx, target);
        if self.rcfg.policy == QuorumPolicy::Enumeration {
            ctx.set_timer(
                self.rcfg.view_change_timeout,
                TimerId(TIMER_VC_BASE + self.vc_gen),
            );
        }
    }

    fn on_view_change(&mut self, ctx: &mut Context<'_, XpMsg>, vc: SignedViewChange) {
        let target = vc.payload.target_view;
        if target <= self.view {
            return; // a late vote for a view already installed (or passed)
        }
        self.collected_vc
            .entry(target)
            .or_default()
            .insert(vc.signer, vc);
        if target > self.effective_view() {
            // Join the higher view change.
            self.start_view_change(ctx, target);
        } else if self.effective_view() == target {
            self.progress_view_change(ctx, target);
        }
    }

    /// Once the VIEW-CHANGE messages of all target-quorum members are in:
    /// the new leader completes the change; everyone else now — and only
    /// now — expects the NEW-VIEW (a correct leader is guaranteed to send
    /// it within a round, so the expectation is accuracy-safe).
    fn progress_view_change(&mut self, ctx: &mut Context<'_, XpMsg>, target: u64) {
        let now = ctx.now();
        if self.phase != (Phase::ViewChange { target }) {
            return;
        }
        let members = *self.views.group(target).members();
        let collected = self.collected_vc.entry(target).or_default();
        if !members.iter().all(|k| collected.contains_key(&k)) {
            return;
        }
        let leader = self.views.leader(target);
        if leader != self.me {
            if !self.nv_expected {
                self.nv_expected = true;
                let min = self.rcfg.view_change_timeout;
                self.fd.arm(now, leader, min, XpExpect::NewView { target });
            }
            return;
        }
        // Everything below the highest reported watermark is decided at
        // the reporter; members behind it catch up via state transfer
        // instead of re-agreement. Merge only entries at or above it:
        // per slot, the prepare of the highest view wins.
        let base = collected
            .values()
            .map(|vc| vc.payload.watermark)
            .max()
            .unwrap_or(0);
        let mut merged: BTreeMap<u64, SignedPrepare> = BTreeMap::new();
        for vc in collected.values() {
            for sp in &vc.payload.prepared {
                // Only honor entries actually signed by their view's leader.
                if sp.payload.slot < base
                    || self.verifier.verify(sp).is_err()
                    || sp.signer != self.views.leader(sp.payload.view)
                {
                    continue;
                }
                merged
                    .entry(sp.payload.slot)
                    .and_modify(|cur| {
                        if sp.payload.view > cur.payload.view {
                            *cur = sp.clone();
                        }
                    })
                    .or_insert_with(|| sp.clone());
            }
        }
        let reproposals: Vec<SignedPrepare> = merged
            .values()
            .map(|sp| {
                self.signer.sign(PreparePayload {
                    view: target,
                    slot: sp.payload.slot,
                    batch: sp.payload.batch.clone(),
                })
            })
            .collect();
        let nv = self.signer.sign(NewViewPayload {
            view: target,
            base,
            reproposals,
        });
        self.broadcast(ctx, || XpMsg::NewView(nv.clone()));
        self.install_new_view(ctx, nv);
    }

    fn on_new_view(&mut self, ctx: &mut Context<'_, XpMsg>, nv: SignedNewView) {
        let target = nv.payload.view;
        if nv.signer != self.views.leader(target) {
            return;
        }
        let acceptable = match self.phase {
            Phase::Normal => target > self.view,
            Phase::ViewChange { target: t } => target >= t || target > self.view,
        };
        if !acceptable {
            return;
        }
        // All re-proposals must be signed by the new leader for the new
        // view; a NEW-VIEW smuggling anything else is proof of misbehaviour.
        let all_ok = nv.payload.reproposals.iter().all(|sp| {
            self.verifier.verify(sp).is_ok()
                && sp.signer == nv.signer
                && sp.payload.view == target
        });
        if !all_ok {
            self.detect(ctx, nv.signer);
            return;
        }
        self.install_new_view(ctx, nv);
    }

    /// Sends `StateFetch { from_slot, to_slot }` to every target but
    /// ourselves, in order, and expects a `StateBatch` back from each
    /// (`key` names the expectation).
    fn fetch_state(
        &mut self,
        ctx: &mut Context<'_, XpMsg>,
        targets: impl Iterator<Item = ProcessId>,
        from_slot: u64,
        to_slot: u64,
        key: XpExpect,
    ) {
        let min = self.rcfg.view_change_timeout;
        for k in targets.filter(|k| *k != self.me) {
            ctx.send(k, XpMsg::StateFetch { from_slot, to_slot });
            self.fd.arm(ctx.now(), k, min, key);
        }
    }

    fn install_new_view(&mut self, ctx: &mut Context<'_, XpMsg>, nv: SignedNewView) {
        let now = ctx.now();
        let target = nv.payload.view;
        self.view = target;
        self.phase = Phase::Normal;
        self.vc_gen += 1; // invalidates any pending stall timer
        self.stats.views_installed += 1;
        self.trace.emit(|| TraceEvent::ViewInstalled {
            p: self.me.0,
            view: target,
        });
        self.view_history.push((now, target));
        // Targets at or below the new view can never be progressed again.
        match target.checked_add(1) {
            Some(above) => self.collected_vc = self.collected_vc.split_off(&above),
            None => self.collected_vc.clear(),
        }
        let suspected = self.fd.cancel_all(now);
        self.on_suspected(ctx, suspected);
        let in_quorum = self.views.group(target).contains(self.me);
        let base = nv.payload.base;
        if self.log.watermark() < base {
            // Slots below `base` are decided elsewhere: fetch their
            // certificates rather than re-agreeing on them. Every member
            // answers a StateFetch (possibly with an empty batch), so the
            // expectation below is accuracy-safe.
            let from_slot = self.log.watermark();
            let members = *self.views.group(target).members();
            self.fetch_state(ctx, members.iter(), from_slot, base, XpExpect::StateBatch);
        }
        // Replay protocol traffic that arrived mid view change FIRST, so
        // the commits it carries are in the log before the re-proposal
        // loop decides which expectations to arm — an expectation must
        // never be issued for a message that was already consumed.
        let protocol = std::mem::take(&mut self.pending_protocol);
        for msg in protocol {
            match msg {
                XpMsg::Prepare(sp) if sp.payload.view >= self.view => {
                    self.on_prepare(ctx, sp)
                }
                XpMsg::Commit(sc) if sc.payload.view >= self.view => {
                    self.on_commit(ctx, sc)
                }
                _ => {}
            }
        }
        let mut max_slot = self.next_slot.max(base);
        for sp in &nv.payload.reproposals {
            max_slot = max_slot.max(sp.payload.slot + 1);
            if in_quorum {
                self.process_prepare_locally(ctx, sp.clone());
            } else {
                // Passive replicas track the log so their future
                // VIEW-CHANGE messages carry the entries.
                self.log.accept_prepare(sp.clone());
            }
        }
        self.next_slot = max_slot;
        // Requests stranded in the old leader's batch accumulator rejoin
        // the pending set — `on_request` re-routes them: proposed if we
        // still lead, forwarded to the new leader otherwise.
        self.drain_pending_batch();
        self.pending_keys.clear();
        let pending = std::mem::take(&mut self.pending_requests);
        for req in pending {
            self.on_request(ctx, req);
        }
    }

    /// Moves batch-accumulator requests back into `pending_requests`
    /// (dedup-preserving) and disarms the batch deadline. Called when
    /// leaving normal operation: the batch machinery only runs for the
    /// current view's leader.
    fn drain_pending_batch(&mut self) {
        self.batch_deadline = None;
        for req in std::mem::take(&mut self.pending_batch) {
            self.buffer_request(req);
        }
    }

    /// Buffers `req` for replay after the next view install, unless a
    /// request with its `(client, op)` is already buffered.
    fn buffer_request(&mut self, req: Request) {
        #[cfg(test)]
        if self.linear_dedup {
            if !holds(&self.pending_requests, &req) {
                self.pending_requests.push(req);
            }
            return;
        }
        if self.pending_keys.insert((req.client, req.op)) {
            self.pending_requests.push(req);
        }
    }

    /// Buffers a protocol message for replay after the next view install,
    /// bounded to keep a Byzantine flood from growing memory.
    fn stash(&mut self, msg: XpMsg) {
        const MAX_PENDING: usize = 100_000;
        if self.pending_protocol.len() >= MAX_PENDING {
            self.pending_protocol.pop_front();
        }
        self.pending_protocol.push_back(msg);
    }

    // ------------------------------------------------------------------
    // Lazy replication and state transfer
    // ------------------------------------------------------------------

    /// Leader-side background replication (XPaxos's lazy replication):
    /// periodically ship certificates of newly decided slots to the
    /// replicas outside the active quorum, so their logs track the
    /// frontier and any future view change involving them stays O(recent).
    fn lazy_tick(&mut self, ctx: &mut Context<'_, XpMsg>) {
        ctx.set_timer(self.rcfg.lazy_period, TIMER_LAZY);
        if self.phase != Phase::Normal || self.me != self.leader() {
            return;
        }
        const MAX_BATCH: u64 = 2_000;
        let end = self.log.watermark();
        let start = self.lazy_sent.min(end);
        let end = end.min(start + MAX_BATCH);
        if start >= end {
            return;
        }
        let mut entries = self.log.decided_entries(start..end);
        self.lazy_sent = end;
        if entries.is_empty() {
            return;
        }
        let members = *self.active_quorum().members();
        let mut passive = self
            .cfg
            .processes()
            .filter(|&k| k != self.me && !members.contains(k))
            .peekable();
        // Clones for all but the last passive replica, which takes the
        // original.
        while let Some(k) = passive.next() {
            let entries = if passive.peek().is_some() {
                entries.clone()
            } else {
                std::mem::take(&mut entries)
            };
            ctx.send(k, XpMsg::LazyUpdate { entries });
        }
    }

    /// Answers a state-transfer request with whatever certified decided
    /// entries we hold in the range. Always responds (possibly with an
    /// empty batch) so the requester's expectation stays accuracy-safe.
    fn on_state_fetch(
        &mut self,
        ctx: &mut Context<'_, XpMsg>,
        requester: ProcessId,
        from_slot: u64,
        to_slot: u64,
    ) {
        if !self.cfg.contains(requester) {
            return; // only replicas participate in state transfer
        }
        const MAX_BATCH: u64 = 5_000;
        let to_slot = to_slot.min(from_slot.saturating_add(MAX_BATCH));
        let entries = self.log.decided_entries(from_slot..to_slot);
        ctx.send(requester, XpMsg::StateBatch { entries });
    }

    /// Adopts certified decided entries (from lazy replication or a state
    /// batch) after verifying each certificate, then executes anything
    /// that became ready.
    fn adopt_entries(&mut self, ctx: &mut Context<'_, XpMsg>, entries: Vec<DecidedEntry>) {
        for entry in entries {
            if !self.verify_certificate(&entry) {
                continue;
            }
            self.log.adopt_decided(entry.prepare, entry.commits);
        }
        self.execute_and_reply(ctx);
    }

    /// A certificate is valid iff the prepare is signed by its view's
    /// leader and every non-leader member of that view's quorum
    /// contributed a matching signed commit — the exact evidence a decided
    /// slot rests on, so not even a Byzantine sender can forge one.
    fn verify_certificate(&self, entry: &DecidedEntry) -> bool {
        let sp = &entry.prepare;
        if !self.verify_prepare_once(sp) {
            return false;
        }
        let view = sp.payload.view;
        let leader = self.views.leader(view);
        if sp.signer != leader {
            return false;
        }
        let members = *self.views.group(view).members();
        let digest = sp.payload.batch.digest();
        members.iter().filter(|k| *k != leader).all(|k| {
            entry.commits.iter().any(|c| {
                c.signer == k
                    && c.payload.view == view
                    && c.payload.slot == sp.payload.slot
                    && c.payload.digest == digest
                    && self.verifier.verify(c).is_ok()
            })
        })
    }

    // ------------------------------------------------------------------
    // Checkpointing and log compaction
    // ------------------------------------------------------------------

    /// Signs and broadcasts any checkpoint payloads the log captured
    /// while executing, counting our own vote. Payloads at or below the
    /// stable checkpoint (e.g. recomputed while replaying compact
    /// entries) are skipped — their certificate already exists.
    fn pump_checkpoints(&mut self, ctx: &mut Context<'_, XpMsg>) {
        if !self.rcfg.checkpoint.enabled() {
            return;
        }
        for payload in self.log.take_pending_checkpoints() {
            if payload.slot <= self.stable_checkpoint_slot() {
                continue;
            }
            let vote = self.signer.sign(payload);
            self.broadcast(ctx, || XpMsg::Checkpoint(vote.clone()));
            self.on_checkpoint(ctx, vote);
        }
    }

    /// Records a checkpoint vote (a peer's signature was verified by
    /// `authenticate`; our own is trivially valid) and promotes the slot
    /// to stable once `f + 1` byte-identical payloads carry signatures
    /// from distinct replicas.
    // lint: allow(S1, σ verified by authenticate in handle_message; own votes are self-signed)
    fn on_checkpoint(&mut self, ctx: &mut Context<'_, XpMsg>, sc: SignedCheckpoint) {
        if !self.rcfg.checkpoint.enabled() {
            return;
        }
        let slot = sc.payload.slot;
        if slot <= self.stable_checkpoint_slot() || !self.cfg.contains(sc.signer) {
            return;
        }
        self.ckpt_votes.entry(slot).or_default().insert(sc.signer, sc);
        while self.ckpt_votes.len() > MAX_VOTE_SLOTS {
            self.ckpt_votes.pop_last();
        }
        let need = thresholds::checkpoint_quorum(self.cfg.f());
        let Some(votes) = self.ckpt_votes.get(&slot) else {
            return; // the new vote itself was evicted as far-future spam
        };
        // Group by payload equality (at most n votes; a quadratic scan
        // beats hashing whole payloads and is deterministic).
        let mut cert_sigs: Option<Vec<SignedCheckpoint>> = None;
        for candidate in votes.values() {
            let matching: Vec<SignedCheckpoint> = votes
                .values()
                .filter(|v| v.payload == candidate.payload)
                .cloned()
                .collect();
            if matching.len() >= need {
                cert_sigs = Some(matching);
                break;
            }
        }
        if let Some(sigs) = cert_sigs {
            self.install_stable(ctx, CheckpointCert { sigs });
        }
    }

    /// Installs a newer stable checkpoint: traces it, garbage-collects
    /// the log below it (bounded by our own executed prefix), prunes
    /// votes it covers, and — if the certificate proves the cluster is
    /// far ahead of us — starts catching up.
    fn install_stable(&mut self, ctx: &mut Context<'_, XpMsg>, cert: CheckpointCert) {
        let Some(payload) = cert.payload().cloned() else {
            return;
        };
        let slot = payload.slot;
        if slot <= self.stable_checkpoint_slot() {
            return;
        }
        let digest = digest_fingerprint(&payload.digest());
        self.stable_ckpt = Some(cert);
        self.stats.checkpoints_stable += 1;
        let p = self.me.0;
        self.trace.emit(|| TraceEvent::CheckpointStable { p, slot, digest });
        self.gc_log_below(slot);
        self.ckpt_votes = self.ckpt_votes.split_off(&(slot + 1));
        // Far behind the certified frontier? The quorum moved on without
        // us (lazy replication lagging, long partition, …): catch up now
        // instead of waiting to be needed by a view change.
        let horizon = 2 * self.rcfg.checkpoint.interval;
        if slot > self.log.watermark().saturating_add(horizon) {
            self.begin_sync(ctx);
        }
    }

    /// Compacts the log below the stable checkpoint at `slot` (bounded by
    /// our own executed prefix) and traces the collection if any.
    fn gc_log_below(&mut self, slot: u64) {
        let below = slot.min(self.log.watermark());
        if self.log.gc_below(slot, self.rcfg.checkpoint.archive_retain) > 0 {
            let (p, len) = (self.me.0, self.log.log_len() as u64);
            self.trace.emit(|| TraceEvent::LogGc { p, below, len });
        }
    }

    /// A stable-checkpoint certificate verifies iff it carries `f + 1`
    /// distinct in-cluster signers with valid signatures over
    /// byte-identical payloads whose peak count matches the slot's bit
    /// pattern. At least one signer is then correct, and correct replicas
    /// only sign checkpoints they computed by executing the prefix.
    fn verify_checkpoint_cert(&self, cert: &CheckpointCert) -> bool {
        let Some(payload) = cert.payload() else {
            return false;
        };
        if payload.peaks.len() != payload.slot.count_ones() as usize {
            return false;
        }
        let mut signers = BTreeSet::new();
        for s in &cert.sigs {
            if s.payload != *payload
                || !self.cfg.contains(s.signer)
                || self.verifier.verify(s).is_err()
                || !signers.insert(s.signer)
            {
                return false;
            }
        }
        thresholds::checkpoint_cert_complete(self.cfg.f(), signers.len())
    }

    // ------------------------------------------------------------------
    // Incremental state transfer (recovery)
    // ------------------------------------------------------------------

    /// Starts recovery: probe every peer for its checkpoint and
    /// serveable range, then pull only the gap from the best donor.
    /// No-op while a transfer is already in flight.
    fn begin_sync(&mut self, ctx: &mut Context<'_, XpMsg>) {
        if !self.rcfg.checkpoint.enabled() || !matches!(self.sync, SyncState::Idle) {
            return;
        }
        self.stats.state_transfers += 1;
        self.sync_infos.clear();
        self.sync_failed.clear();
        self.start_probe(ctx, 0);
    }

    fn start_probe(&mut self, ctx: &mut Context<'_, XpMsg>, retries: u32) {
        self.sync = SyncState::Probing { retries };
        self.sync_gen += 1;
        let watermark = self.log.watermark();
        self.broadcast(ctx, || XpMsg::SyncQuery { watermark });
        ctx.set_timer(
            self.sync_backoff(retries),
            TimerId(TIMER_SYNC_BASE + self.sync_gen),
        );
    }

    /// Bounded-exponential backoff for probe and fetch retries.
    fn sync_backoff(&self, retries: u32) -> SimDuration {
        self.rcfg
            .view_change_timeout
            .saturating_mul(1u64 << retries.min(5))
    }

    /// Donor side of the probe: always answer with whatever we can serve
    /// (requesters fail over on silence, so never answering would read as
    /// a crash — answering with nothing is honest and cheap).
    fn on_sync_query(
        &mut self,
        ctx: &mut Context<'_, XpMsg>,
        requester: ProcessId,
        _watermark: u64,
    ) {
        if !self.cfg.contains(requester) || requester == self.me {
            return;
        }
        ctx.send(
            requester,
            XpMsg::SyncInfo {
                checkpoint: self.stable_ckpt.clone(),
                archive_from: self.log.serve_floor(),
                frontier: self.log.watermark(),
            },
        );
    }

    /// Donor side of a compact fetch: serve MMR-proved batches for as
    /// much of the requested range as we still hold. Always responds
    /// (possibly empty) so the requester fails over instead of hanging.
    fn on_sync_fetch(
        &mut self,
        ctx: &mut Context<'_, XpMsg>,
        requester: ProcessId,
        from_slot: u64,
        to_slot: u64,
        proof_slot: u64,
    ) {
        if !self.cfg.contains(requester) || requester == self.me {
            return;
        }
        let to = to_slot
            .min(from_slot.saturating_add(SYNC_CHUNK))
            .min(proof_slot)
            .min(self.log.watermark());
        let mut entries = Vec::new();
        for slot in from_slot..to {
            let Some(batch) = self.log.batch_at(slot) else {
                break;
            };
            let Ok(proof) = self.log.mmr().proof_at(slot, proof_slot) else {
                break;
            };
            entries.push(CompactEntry {
                slot,
                batch: batch.clone(),
                proof,
            });
        }
        ctx.send(
            requester,
            XpMsg::SyncChunk {
                entries,
                proof_slot,
            },
        );
    }

    /// Requester side of the probe: record the answer (dropping any
    /// checkpoint certificate that fails verification — a Byzantine donor
    /// must not steer us with a forged one) and decide once every peer
    /// has answered; the probe timer decides earlier on partial answers.
    fn on_sync_info(
        &mut self,
        ctx: &mut Context<'_, XpMsg>,
        sender: ProcessId,
        checkpoint: Option<CheckpointCert>,
        archive_from: u64,
        frontier: u64,
    ) {
        if !matches!(self.sync, SyncState::Probing { .. }) {
            return;
        }
        if !self.cfg.contains(sender) || sender == self.me {
            return;
        }
        let verified = checkpoint.filter(|c| self.verify_checkpoint_cert(c));
        self.sync_infos.insert(
            sender,
            PeerSyncInfo {
                checkpoint: verified,
                archive_from,
                frontier,
            },
        );
        if thresholds::all_peers_answered(self.cfg.n(), self.sync_infos.len() as u32) {
            self.choose_donor(ctx);
        }
    }

    /// Picks the donor and transfer mode from the collected answers.
    ///
    /// Mode preference:
    /// 1. **compact** — a verified checkpoint certificate is ahead of us
    ///    and some donor still serves the batches in `[watermark, cert)`:
    ///    fetch them with MMR inclusion proofs, verifying each entry
    ///    against the certified root before applying (keeps our full
    ///    dedup history).
    /// 2. **jump** — a certificate is ahead but our gap was compacted
    ///    away everywhere: install the certified checkpoint directly,
    ///    then pull the suffix as ordinary commit certificates.
    /// 3. **replay** — no checkpoint anywhere (graceful degradation):
    ///    pull the whole suffix as commit certificates from one donor, as
    ///    the pre-checkpoint protocol did by broadcast.
    ///
    /// Donor choice is deterministic: highest frontier, ties to the
    /// lowest id, excluding donors that already failed this recovery.
    fn choose_donor(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let my_wm = self.log.watermark();
        let cands: Vec<(ProcessId, u64, u64, Option<u64>)> = self
            .sync_infos
            .iter()
            .filter(|(k, _)| !self.sync_failed.contains(k))
            .map(|(k, i)| {
                (
                    *k,
                    i.archive_from,
                    i.frontier,
                    i.checkpoint.as_ref().and_then(|c| c.payload()).map(|p| p.slot),
                )
            })
            .collect();
        if cands.is_empty() {
            // Everyone failed or nobody answered: forget the failed set
            // (a donor may merely have been slow) and re-probe, backing
            // off so a dead cluster is not flooded.
            let retries = match self.sync {
                SyncState::Probing { retries } => retries + 1,
                _ => 1,
            };
            self.sync_failed.clear();
            self.sync_infos.clear();
            self.start_probe(ctx, retries);
            return;
        }
        let pick_donor = |cands: &[(ProcessId, u64, u64, Option<u64>)]| {
            cands
                .iter()
                .max_by_key(|(k, _, fr, _)| (*fr, std::cmp::Reverse(*k)))
                .map(|(k, ..)| *k)
        };
        let target = cands.iter().map(|(_, _, fr, _)| *fr).max().unwrap_or(0);
        if target <= my_wm {
            // Nothing to fetch: we are at or past every answering peer.
            self.finish_sync();
            return;
        }
        // The newest verified certificate ahead of us, from any answer.
        let best: Option<(u64, ProcessId)> = cands
            .iter()
            .filter_map(|(k, _, _, cs)| cs.map(|s| (s, *k)))
            .filter(|(s, _)| *s > my_wm)
            .max_by_key(|(s, k)| (*s, std::cmp::Reverse(*k)));
        let donor;
        let mode;
        let mut proof_slot = 0;
        let mut ckpt_payload = None;
        let mut boundary = None;
        if let Some((cs, holder)) = best {
            let cert = self
                .sync_infos
                .get(&holder)
                .and_then(|i| i.checkpoint.clone());
            let Some(cert) = cert else {
                return; // unreachable: `best` came from a present cert
            };
            let Some(payload) = cert.payload().cloned() else {
                return;
            };
            // Adopt the certificate: it verified, it is newer than ours,
            // and holding it lets us serve future recoverers. GC below
            // our own watermark rides along.
            self.install_stable(ctx, cert);
            let compact_donor = cands
                .iter()
                .filter(|(_, af, fr, _)| *af <= my_wm && *fr >= cs)
                .max_by_key(|(k, _, fr, _)| (*fr, std::cmp::Reverse(*k)))
                .map(|(k, ..)| *k);
            if let Some(d) = compact_donor {
                donor = d;
                mode = "compact";
                proof_slot = cs;
                ckpt_payload = Some(payload);
            } else {
                // Nobody can serve our gap: jump to the certified state.
                if self.log.install_checkpoint(&payload).is_err() {
                    // Unreachable for a verified cert (peak count was
                    // checked); treat the holder as bad and re-choose.
                    self.sync_failed.insert(holder);
                    self.choose_donor(ctx);
                    return;
                }
                boundary = Some((cs, digest_fingerprint(&payload.digest())));
                let Some(d) = pick_donor(&cands) else { return };
                donor = d;
                mode = "jump";
            }
        } else {
            let Some(d) = pick_donor(&cands) else { return };
            donor = d;
            mode = "replay";
        }
        self.sync = SyncState::Fetching {
            donor,
            ckpt: ckpt_payload,
            proof_slot,
            target,
            retries: 0,
            boundary,
        };
        let p = self.me.0;
        self.trace.emit(|| TraceEvent::StateTransferStart {
            p,
            from: my_wm,
            to: target,
            mode: mode.to_string(),
        });
        self.request_next(ctx);
    }

    /// Sends the next fetch round to the donor and arms its retry timer.
    /// The request range restarts at the current watermark, so whatever
    /// already arrived (chunks, racing lazy updates) is never re-fetched.
    fn request_next(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let SyncState::Fetching {
            donor,
            proof_slot,
            target,
            retries,
            ..
        } = &self.sync
        else {
            return;
        };
        let (donor, proof_slot, target, retries) = (*donor, *proof_slot, *target, *retries);
        let wm = self.log.watermark();
        if wm >= target {
            self.finish_sync();
            return;
        }
        self.sync_gen += 1;
        let msg = if wm < proof_slot {
            XpMsg::SyncFetch {
                from_slot: wm,
                to_slot: (wm + SYNC_CHUNK).min(proof_slot),
                proof_slot,
            }
        } else {
            XpMsg::StateFetch {
                from_slot: wm,
                to_slot: target,
            }
        };
        ctx.send(donor, msg);
        ctx.set_timer(
            self.sync_backoff(retries),
            TimerId(TIMER_SYNC_BASE + self.sync_gen),
        );
    }

    /// Requester side of a compact fetch: each entry is verified against
    /// the certified MMR root *before* it is applied — a forged or
    /// tampered entry condemns the chunk and the donor, and nothing from
    /// it touches the log.
    fn on_sync_chunk(
        &mut self,
        ctx: &mut Context<'_, XpMsg>,
        sender: ProcessId,
        entries: Vec<CompactEntry>,
        proof_slot: u64,
    ) {
        let SyncState::Fetching {
            donor,
            ckpt: Some(ckpt),
            proof_slot: want_ps,
            ..
        } = &self.sync
        else {
            return;
        };
        if sender != *donor || proof_slot != *want_ps || self.log.watermark() >= proof_slot {
            return; // unsolicited, mismatched, or stale
        }
        let root = qsel_mmr::root_of_peaks(ckpt.slot, &ckpt.peaks);
        let first = entries.first().map_or(self.log.watermark(), |e| e.slot);
        let mut bad = entries.is_empty(); // an empty answer means the donor reneged
        let mut progressed = false;
        for e in &entries {
            let wm = self.log.watermark();
            if e.slot < wm {
                continue; // already applied (a racing lazy update won)
            }
            let leaf = qsel_mmr::leaf_hash(e.slot, &e.batch.digest());
            if e.slot != wm
                || e.slot >= proof_slot
                || e.proof.leaf_index != e.slot
                || e.proof.leaf_count != proof_slot
                || !qsel_mmr::verify(&leaf, &e.proof, &root)
            {
                bad = true;
                break;
            }
            if let Some(reqs) = self.log.apply_compact(e.slot, &e.batch) {
                progressed = true;
                for (s, req) in reqs {
                    self.stats.executed += 1;
                    self.trace.emit(|| TraceEvent::Executed {
                        p: self.me.0,
                        slot: s,
                        digest: digest_fingerprint(&req.digest()),
                    });
                    ctx.send(
                        req.client,
                        XpMsg::Reply(Reply {
                            view: self.view,
                            op: req.op,
                            result: s,
                        }),
                    );
                }
            }
        }
        self.pump_checkpoints(ctx);
        if bad {
            self.stats.chunks_rejected += 1;
            let (p, from) = (self.me.0, sender.0);
            self.trace.emit(|| TraceEvent::SyncChunkRejected {
                p,
                from,
                slot: first,
            });
            self.fail_donor(ctx);
            return;
        }
        if let SyncState::Fetching {
            retries, boundary, ..
        } = &mut self.sync
        {
            if progressed {
                *retries = 0;
            }
            if boundary.is_none() && self.log.watermark() >= proof_slot {
                // Compact segment complete: our *recomputed* checkpoint
                // payload at the certified boundary is the end-to-end
                // integrity witness the replay analyzer compares against
                // the certificate's digest.
                if let Ok(p) = self.log.checkpoint_payload() {
                    *boundary = Some((p.slot, digest_fingerprint(&p.digest())));
                }
            }
        }
        self.request_next(ctx);
    }

    /// Called after StateBatch/LazyUpdate adoptions: when a certified
    /// tail fetch is in flight, cursor movement is progress — request the
    /// next round or finish. Without movement, the retry timer (not this
    /// path) escalates, so an empty answer cannot spin a request loop.
    fn sync_progress(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let SyncState::Fetching {
            proof_slot, target, ..
        } = &self.sync
        else {
            return;
        };
        let (proof_slot, target) = (*proof_slot, *target);
        let wm = self.log.watermark();
        if wm < proof_slot {
            return; // the compact segment drives itself chunk by chunk
        }
        if wm >= target {
            self.finish_sync();
        } else if let SyncState::Fetching { retries, .. } = &mut self.sync {
            *retries = 0;
            self.request_next(ctx);
        }
    }

    /// Abandons the current donor (bad chunk or repeated timeouts) and
    /// re-chooses from the remaining answers.
    fn fail_donor(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let SyncState::Fetching { donor, .. } = &self.sync else {
            return;
        };
        self.sync_failed.insert(*donor);
        self.sync = SyncState::Probing { retries: 0 };
        self.sync_gen += 1; // invalidate the in-flight fetch timer
        self.choose_donor(ctx);
    }

    /// A probe or fetch round went unanswered (generation-checked).
    fn on_sync_timeout(&mut self, ctx: &mut Context<'_, XpMsg>) {
        enum Act {
            None,
            Choose,
            Reprobe(u32),
            Fail,
            Retry,
        }
        let act = match &mut self.sync {
            SyncState::Idle => Act::None,
            SyncState::Probing { retries } => {
                if self
                    .sync_infos
                    .keys()
                    .any(|k| !self.sync_failed.contains(k))
                {
                    Act::Choose
                } else {
                    Act::Reprobe(*retries + 1)
                }
            }
            SyncState::Fetching { retries, .. } => {
                if *retries >= SYNC_MAX_RETRIES {
                    Act::Fail
                } else {
                    *retries += 1;
                    Act::Retry
                }
            }
        };
        match act {
            Act::None => {}
            Act::Choose => self.choose_donor(ctx),
            Act::Reprobe(r) => self.start_probe(ctx, r),
            Act::Fail => self.fail_donor(ctx),
            Act::Retry => self.request_next(ctx),
        }
    }

    /// Completes the transfer: emits the done event carrying the
    /// recomputed boundary digest (compact), the installed certificate
    /// digest (jump), or the final recomputed payload digest (replay).
    fn finish_sync(&mut self) {
        let boundary = match &self.sync {
            SyncState::Fetching { boundary, .. } => *boundary,
            _ => None,
        };
        let (slot, digest) = boundary.unwrap_or_else(|| {
            let slot = self.log.watermark();
            let digest = self
                .log
                .checkpoint_payload()
                .map(|p| digest_fingerprint(&p.digest()))
                .unwrap_or(0);
            (slot, digest)
        });
        let p = self.me.0;
        self.trace.emit(|| TraceEvent::StateTransferDone { p, slot, digest });
        self.sync = SyncState::Idle;
        self.sync_gen += 1;
        self.sync_infos.clear();
        self.sync_failed.clear();
        // The stable checkpoint adopted at donor-choice time could only
        // collect below our *then* watermark; now that the gap is closed,
        // compact everything below it so the recovered replica's resident
        // log is bounded by the checkpoint interval again.
        if self.stable_ckpt.is_some() {
            self.gc_log_below(self.stable_checkpoint_slot());
        }
    }

    // ------------------------------------------------------------------
    // Failure-detector and quorum-selection plumbing
    // ------------------------------------------------------------------

    fn detect(&mut self, ctx: &mut Context<'_, XpMsg>, who: ProcessId) {
        self.stats.detections += 1;
        self.trace.emit(|| TraceEvent::DetectionRaised {
            p: self.me.0,
            against: who.0,
        });
        let suspected = self.fd.detected(ctx.now(), who);
        self.on_suspected(ctx, suspected);
    }

    /// `⟨SUSPECTED, S⟩`: a changed suspicion set (`None`: unchanged, a
    /// no-op) steers the quorum.
    fn on_suspected(&mut self, ctx: &mut Context<'_, XpMsg>, suspected: Option<ProcessSet>) {
        let Some(s) = suspected else { return };
        match self.rcfg.policy {
            QuorumPolicy::Selection => {
                // `new()` constructs the module whenever the policy is
                // Selection, so this branch always finds it; typed instead
                // of `expect`.
                if let Some(qs) = self.qs.as_mut() {
                    let qs_out = qs.on_suspected(s);
                    self.pump_qs(ctx, qs_out);
                }
            }
            QuorumPolicy::Enumeration => {
                // Quorum-granularity detection: any suspicion of an
                // active-quorum member abandons the current view.
                if self.phase == Phase::Normal
                    && self
                        .active_quorum()
                        .iter()
                        .any(|m| s.contains(m) && m != self.me)
                {
                    if let Some(next) = self.view.checked_add(1) {
                        self.start_view_change(ctx, next);
                    }
                }
            }
        }
    }

    fn pump_qs(&mut self, ctx: &mut Context<'_, XpMsg>, qs_out: Vec<QsOutput>) {
        for o in qs_out {
            match o {
                QsOutput::Broadcast(u) => self.broadcast(ctx, || XpMsg::Update(u.clone())),
                QsOutput::Quorum(q) => {
                    // §V-B: jump to the view of the selected quorum,
                    // suspecting all quorums ordered before it.
                    let already = match self.phase {
                        Phase::Normal => self.views.group(self.view) == q,
                        Phase::ViewChange { target } => self.views.group(target) == q,
                    };
                    if !already {
                        if let Some(target) = self.views.view_for_quorum(self.effective_view(), &q) {
                            self.start_view_change(ctx, target);
                        }
                    }
                }
            }
        }
    }

    /// Whether `sp` carries a valid signature. A PREPARE equal in signer,
    /// tag and every payload byte to the one the log holds for its slot
    /// was verified before it was admitted (every `Log::accept_prepare` /
    /// `adopt_decided` caller verifies first); any other is verified now.
    // lint: allow(S1, reads only the slot number, to find the already-verified log entry the PREPARE is compared with; everything else falls through to verify)
    fn verify_prepare_once(&self, sp: &SignedPrepare) -> bool {
        self.log.prepare_at(sp.payload.slot) == Some(sp) || self.verifier.verify(sp).is_ok()
    }

    fn authenticate(&self, msg: &XpMsg) -> Option<ProcessId> {
        match msg {
            XpMsg::Prepare(m) => self.verifier.verify(m).ok().map(|_| m.signer),
            XpMsg::Commit(m) => self.verifier.verify(m).ok().map(|_| m.signer),
            XpMsg::ViewChange(m) => self.verifier.verify(m).ok().map(|_| m.signer),
            XpMsg::NewView(m) => self.verifier.verify(m).ok().map(|_| m.signer),
            XpMsg::Update(m) => self.verifier.verify(m).ok().map(|_| m.signer),
            XpMsg::Heartbeat(m) => self.verifier.verify(m).ok().map(|_| m.signer),
            XpMsg::Checkpoint(m) => self.verifier.verify(m).ok().map(|_| m.signer),
            XpMsg::LazyUpdate { .. } | XpMsg::StateFetch { .. } | XpMsg::StateBatch { .. } => None,
            XpMsg::SyncQuery { .. }
            | XpMsg::SyncInfo { .. }
            | XpMsg::SyncFetch { .. }
            | XpMsg::SyncChunk { .. } => None,
            XpMsg::Request(_) | XpMsg::Reply(_) => None,
        }
    }

    /// Arms the `TIMER_FD_POLL` the detector's earliest deadline needs,
    /// unless one is already in flight for that instant. Every entry point
    /// ends here.
    fn arm_poll(&mut self, ctx: &mut Context<'_, XpMsg>) {
        #[cfg(test)]
        if self.arm_every_flush {
            self.polls.reset();
        }
        if let Some(delay) = self.polls.arm(ctx.now(), self.fd.next_deadline()) {
            ctx.set_timer(delay, TIMER_FD_POLL);
        }
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("me", &self.me)
            .field("view", &self.view)
            .field("phase", &self.phase)
            .field("decided", &self.log.decided_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{total_committed, ClusterBuilder, XpActor};
    use qsel_simnet::{FaultEvent, FaultPlan, NetStats, SimTime, Simulation};

    fn ms(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    /// A seeded n = 7 cluster through crashes, restarts and pauses of
    /// quorum members, with polls armed per instant or — the oracle — after
    /// every callback.
    fn faulted_run(arm_every_flush: bool) -> Simulation<XpMsg, XpActor> {
        let cfg = ClusterConfig::new(7, 2).unwrap();
        let mut sim = ClusterBuilder::new(cfg, 11).clients(4, 150).build();
        for p in cfg.processes() {
            if let XpActor::Replica(r) = sim.actor_mut(p) {
                r.arm_every_flush = arm_every_flush;
            }
        }
        let [p1, p2, p3, p4] = [1, 2, 3, 4].map(ProcessId);
        sim.schedule_plan(
            FaultPlan::new()
                .at(ms(5), FaultEvent::Crash(p1))
                .at(ms(12), FaultEvent::Pause(p3))
                .at(ms(21), FaultEvent::Resume(p3))
                .at(ms(30), FaultEvent::Restart(p1))
                .at(ms(34), FaultEvent::Pause(p2))
                .at(ms(36), FaultEvent::Crash(p4))
                .at(ms(37), FaultEvent::Restart(p4))
                .at(ms(47), FaultEvent::Resume(p2)),
        );
        sim.run_until(ms(400));
        sim
    }

    /// Everything but the three counters of events that no longer exist.
    fn without_timer_counts(stats: &NetStats) -> NetStats {
        NetStats {
            timers_fired: 0,
            stale_timers_dropped: 0,
            events_buffered_paused: 0,
            ..stats.clone()
        }
    }

    #[test]
    fn arming_per_instant_changes_nothing_but_the_timer_counts() {
        let (sim, oracle) = (faulted_run(false), faulted_run(true));
        assert_eq!(total_committed(&sim), 600, "the workload must finish");
        let (mut expired, mut views) = (0, 0);
        for p in sim.ids() {
            let (a, b) = (sim.actor(p), oracle.actor(p));
            if let (Some(a), Some(b)) = (a.client(), b.client()) {
                assert_eq!(a.completed, b.completed, "client {p}");
            }
            if let (Some(a), Some(b)) = (a.replica(), b.replica()) {
                assert_eq!(a.view_history(), b.view_history(), "replica {p}");
                assert_eq!(a.fd_stats(), b.fd_stats(), "replica {p}");
                expired += a.fd_stats().expiry_log.len();
                views += a.view_history().len();
            }
        }
        assert!(expired > 0 && views > 0, "the plan must move the cluster");
        let (stats, oracle) = (sim.stats(), oracle.stats());
        assert_eq!(without_timer_counts(stats), without_timer_counts(oracle));
        assert!(stats.events_buffered_paused > 0 && stats.stale_timers_dropped > 0);
        assert!(
            stats.timers_fired * 4 < oracle.timers_fired,
            "{} vs {} timers",
            stats.timers_fired,
            oracle.timers_fired
        );
    }

    #[test]
    fn an_unbatched_commit_costs_a_few_timers() {
        let cfg = ClusterConfig::new(7, 2).unwrap();
        let mut sim = ClusterBuilder::new(cfg, 3).clients(32, 20).build();
        sim.run_until(ms(200));
        assert_eq!(total_committed(&sim), 640);
        let per_commit = sim.stats().timers_fired as f64 / 640.0;
        assert!(per_commit < 10.0, "{per_commit} timers per commit");
    }

    /// A seeded n = 7 cluster whose first two leaders crash and restart
    /// under load, buffering client requests mid view change with the key
    /// index or — the oracle — the linear `holds` scan.
    fn restarted_leaders_run(linear_dedup: bool) -> Simulation<XpMsg, XpActor> {
        let cfg = ClusterConfig::new(7, 2).unwrap();
        let mut sim = ClusterBuilder::new(cfg, 13)
            .clients(12, 120)
            .retry(SimDuration::millis(1))
            .build();
        for p in cfg.processes() {
            if let XpActor::Replica(r) = sim.actor_mut(p) {
                r.linear_dedup = linear_dedup;
            }
        }
        let [p1, p2] = [1, 2].map(ProcessId);
        sim.schedule_plan(
            FaultPlan::new()
                .at(ms(5), FaultEvent::Crash(p1))
                .at(ms(15), FaultEvent::Restart(p1))
                .at(ms(30), FaultEvent::Crash(p2))
                .at(ms(45), FaultEvent::Restart(p2)),
        );
        sim
    }

    #[test]
    fn a_view_change_buffers_each_request_once_in_arrival_order() {
        let (mut sim, mut oracle) = (restarted_leaders_run(false), restarted_leaders_run(true));
        let (mut most, mut replayed) = (0, 0);
        let mut before = [0; 8];
        while sim.now() < ms(300) {
            assert_eq!(sim.step(), oracle.step());
            for p in (1..=7).map(ProcessId) {
                let a = sim.actor(p).replica().unwrap();
                let b = oracle.actor(p).replica().unwrap();
                // Same buffer, same order: the replay after install is the same.
                assert_eq!(a.pending_requests, b.pending_requests, "replica {p}");
                let keys: BTreeSet<_> =
                    a.pending_requests.iter().map(|r| (r.client, r.op)).collect();
                assert_eq!(a.pending_keys, keys, "replica {p}");
                assert_eq!(keys.len(), a.pending_requests.len(), "replica {p}");
                let len = a.pending_requests_len();
                if len < before[p.index()] {
                    replayed += before[p.index()];
                }
                before[p.index()] = len;
                most = most.max(len);
            }
        }
        let retries: u64 =
            sim.ids().filter_map(|p| sim.actor(p).client()).map(|c| c.retries).sum();
        // p1, restarted mid view change, buffers retransmissions from the
        // second crash's retry storm and replays them at its next install.
        assert!(most >= 100 && replayed >= 100 && retries > 0, "{most} {replayed} {retries}");
        assert_eq!(total_committed(&sim), total_committed(&oracle));
    }

    /// Restarting in the instant a poll was armed asks for that very
    /// instant again, but the armed timer died with the old incarnation:
    /// a schedule that survived the restart would skip the poll that
    /// expires the crashed peer's heartbeat.
    #[test]
    fn a_restarted_replica_polls_at_its_first_deadline() {
        let cfg = ClusterConfig::new(5, 1).unwrap();
        let mut sim = ClusterBuilder::new(cfg, 5).clients(0, 0).build();
        let (p2, p3) = (ProcessId(2), ProcessId(3));
        sim.crash(p2);
        sim.start();
        sim.crash(p3);
        sim.restart(p3);
        sim.run_until(ms(10));
        let fd = sim.actor(p3).replica().unwrap().fd_stats();
        let timeout = ReplicaConfig::default().fd.initial_timeout.as_micros();
        let first = fd.expiry_log.first().map(|(t, p, _)| (*t, *p));
        assert_eq!(first, Some((SimTime::from_micros(timeout + 1), p2)));
    }
}

#[cfg(test)]
mod expect_oracle {
    use super::*;
    use qsel::messages::UpdateRow;
    use qsel_detector::Pred;
    use qsel_types::Epoch;

    /// The closure each key replaced, with its label: the oracle.
    fn oracle(key: XpExpect) -> Pred<XpMsg> {
        match key {
            XpExpect::Heartbeat => Pred::new("heartbeat", |m| matches!(m, XpMsg::Heartbeat(_))),
            XpExpect::PrepareFor { view, client, op } => {
                Pred::new("prepare-for-request", move |m| {
                    matches!(
                        m,
                        XpMsg::Prepare(sp)
                            if sp.payload.view == view
                                && sp.payload.batch.contains(client, op)
                    ) || matches!(
                        m,
                        XpMsg::Commit(c)
                            if c.payload.prepare.payload.batch.contains(client, op)
                    )
                })
            }
            XpExpect::OvertakenPrepare { view, slot } => Pred::new("overtaken-prepare", move |m| {
                matches!(
                    m,
                    XpMsg::Prepare(p) if p.payload.view == view && p.payload.slot == slot
                )
            }),
            XpExpect::Commit { view, slot } => Pred::new("commit", move |m| {
                matches!(
                    m,
                    XpMsg::Commit(c) if c.payload.view == view && c.payload.slot == slot
                )
            }),
            XpExpect::ViewChange { target } => Pred::new("view-change", move |m| {
                matches!(
                    m,
                    XpMsg::ViewChange(v) if v.payload.target_view >= target
                )
            }),
            XpExpect::NewView { target } => Pred::new(
                "new-view",
                move |m| matches!(m, XpMsg::NewView(nv) if nv.payload.view >= target),
            ),
            XpExpect::RecoverState => {
                Pred::new("recover-state", |m| matches!(m, XpMsg::StateBatch { .. }))
            }
            XpExpect::StateBatch => {
                Pred::new("state-batch", |m| matches!(m, XpMsg::StateBatch { .. }))
            }
        }
    }

    /// One message of every `XpMsg` variant for `view`, `slot` and a batch
    /// of `reqs` (client, op) pairs.
    fn one_of_each(chain: &Keychain, view: u64, slot: u64, reqs: &[(u32, u64)]) -> Vec<XpMsg> {
        let leader = chain.signer(ProcessId(1));
        let member = chain.signer(ProcessId(2));
        let reqs: Vec<Request> = reqs
            .iter()
            .map(|&(client, op)| Request {
                client: ProcessId(client),
                op,
                payload: op,
            })
            .collect();
        let batch = Batch::new(reqs.clone());
        let prepare = leader.sign(PreparePayload {
            view,
            slot,
            batch: batch.clone(),
        });
        let commit = member.sign(CommitPayload {
            view,
            slot,
            digest: batch.digest(),
            prepare: prepare.clone(),
        });
        let entry = DecidedEntry {
            prepare: prepare.clone(),
            commits: vec![commit.clone()],
        };
        vec![
            XpMsg::Request(reqs.first().cloned().unwrap_or(Request {
                client: ProcessId(9),
                op: 0,
                payload: 0,
            })),
            XpMsg::Prepare(prepare.clone()),
            XpMsg::Commit(commit),
            XpMsg::Reply(Reply {
                view,
                op: slot,
                result: slot,
            }),
            XpMsg::ViewChange(member.sign(ViewChangePayload {
                target_view: view,
                watermark: slot,
                prepared: vec![prepare.clone()],
            })),
            XpMsg::NewView(leader.sign(NewViewPayload {
                view,
                base: slot,
                reproposals: vec![prepare],
            })),
            XpMsg::Update(leader.sign(UpdateRow {
                row: vec![Epoch(view); 4],
            })),
            XpMsg::Heartbeat(leader.sign(HeartbeatPayload { seq: slot })),
            XpMsg::LazyUpdate {
                entries: vec![entry.clone()],
            },
            XpMsg::StateFetch {
                from_slot: slot,
                to_slot: slot + 1,
            },
            XpMsg::StateBatch {
                entries: vec![entry],
            },
            XpMsg::Checkpoint(member.sign(CheckpointPayload {
                slot,
                state: view,
                peaks: vec![batch.digest()],
            })),
            XpMsg::SyncQuery { watermark: slot },
            XpMsg::SyncInfo {
                checkpoint: None,
                archive_from: slot,
                frontier: slot,
            },
            XpMsg::SyncFetch {
                from_slot: slot,
                to_slot: slot + 1,
                proof_slot: slot,
            },
            XpMsg::SyncChunk {
                entries: Vec::new(),
                proof_slot: slot,
            },
        ]
    }

    /// Every key, on field values the messages carry and on values they do
    /// not, is met by exactly the messages its closure accepted, under the
    /// same label.
    #[test]
    fn keys_mean_what_the_closures_meant() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let chain = Keychain::new(&cfg, 5);
        let batches: [&[(u32, u64)]; 3] = [&[(9, 5)], &[(9, 6), (10, 5)], &[]];
        let mut msgs = Vec::new();
        for view in [3, 4, 5] {
            for slot in [7, 8] {
                for reqs in batches {
                    msgs.extend(one_of_each(&chain, view, slot, reqs));
                }
            }
        }
        let kinds: BTreeSet<&str> = msgs.iter().map(XpMsg::kind).collect();
        assert_eq!(kinds.len(), 16, "one message of every XpMsg variant");

        // Keys on field values some message carries, and on values none does.
        let mut carried = vec![
            XpExpect::Heartbeat,
            XpExpect::RecoverState,
            XpExpect::StateBatch,
        ];
        let mut absent = Vec::new();
        for view in [3, 4] {
            for op in [5, 6] {
                let client = ProcessId(9);
                carried.push(XpExpect::PrepareFor { view, client, op });
            }
            let client = ProcessId(10);
            absent.push(XpExpect::PrepareFor {
                view,
                client,
                op: 6,
            });
            carried.push(XpExpect::OvertakenPrepare { view, slot: 7 });
            absent.push(XpExpect::OvertakenPrepare { view, slot: 9 });
            carried.push(XpExpect::Commit { view, slot: 8 });
            absent.push(XpExpect::Commit { view, slot: 9 });
        }
        for target in [3, 4, 5] {
            carried.push(XpExpect::ViewChange { target });
            carried.push(XpExpect::NewView { target });
        }
        absent.push(XpExpect::ViewChange { target: 6 });
        absent.push(XpExpect::NewView { target: 6 });
        let keys = carried.into_iter().map(|k| (k, true));
        for (key, carried) in keys.chain(absent.into_iter().map(|k| (k, false))) {
            let closure = oracle(key);
            assert_eq!(key.label(), closure.label(), "{key:?}");
            let mut met = [false; 2];
            for m in &msgs {
                let is_met = key.is_met_by(m);
                assert_eq!(is_met, closure.is_met_by(m), "{key:?} on {m:?}");
                met[usize::from(is_met)] = true;
            }
            assert!(met[0], "{key:?} is missed by some message");
            assert_eq!(met[1], carried, "{key:?} is met by some message");
        }
    }
}
