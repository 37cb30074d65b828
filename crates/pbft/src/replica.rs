//! Normal-case PBFT replicas, clients, and a message-counting workload
//! runner.

use std::collections::{BTreeMap, BTreeSet};

use qsel_simnet::{Actor, Context, SimConfig, SimDuration, SimTime, Simulation, TimerId};
use qsel_types::crypto::{sha256, Digest};
use qsel_types::encode::{encode_to_vec, Encode};
use qsel_types::{thresholds, ClusterConfig, ProcessId};

/// Which replicas exchange agreement traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Participation {
    /// Classic PBFT: all `n` replicas.
    All,
    /// Only the first `n − f` replicas participate (active quorum); the
    /// rest receive nothing in the normal case.
    ActiveQuorum,
}

/// A client operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Op {
    /// Issuing client.
    pub client: ProcessId,
    /// Client-local sequence number.
    pub seq: u64,
}

impl Encode for Op {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.seq.encode(buf);
    }
}

impl Op {
    fn digest(&self) -> Digest {
        sha256(&encode_to_vec(self))
    }
}

/// PBFT wire messages (normal case).
#[derive(Clone, Debug)]
pub enum PbftMsg {
    /// Client → primary (and, on retry, all replicas).
    Request(Op),
    /// Primary → participants.
    PrePrepare {
        /// Log slot.
        slot: u64,
        /// The operation.
        op: Op,
    },
    /// Participant → participants.
    Prepare {
        /// Log slot.
        slot: u64,
        /// Digest of the operation.
        digest: Digest,
    },
    /// Participant → participants.
    Commit {
        /// Log slot.
        slot: u64,
        /// Digest of the operation.
        digest: Digest,
    },
    /// Replica → client.
    Reply {
        /// The client op sequence number answered.
        seq: u64,
        /// Execution slot.
        result: u64,
    },
}

impl PbftMsg {
    /// Kind tag for traffic accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            PbftMsg::Request(_) => "request",
            PbftMsg::PrePrepare { .. } => "pre-prepare",
            PbftMsg::Prepare { .. } => "prepare",
            PbftMsg::Commit { .. } => "commit",
            PbftMsg::Reply { .. } => "reply",
        }
    }

    /// Whether this counts as inter-replica traffic.
    pub fn is_inter_replica(&self) -> bool {
        !matches!(self, PbftMsg::Request(_) | PbftMsg::Reply { .. })
    }
}

#[derive(Debug, Default)]
struct SlotState {
    op: Option<Op>,
    prepares: BTreeSet<ProcessId>,
    commits: BTreeSet<ProcessId>,
    prepared: bool,
    committed: bool,
}

/// A normal-case PBFT replica.
#[derive(Debug)]
pub struct PbftReplica {
    cfg: ClusterConfig,
    me: ProcessId,
    participation: Participation,
    next_slot: u64,
    slots: BTreeMap<u64, SlotState>,
    assigned: BTreeMap<(ProcessId, u64), u64>,
    exec_cursor: u64,
    /// Executed (slot, op) pairs in order.
    pub executed: Vec<(u64, Op)>,
}

impl PbftReplica {
    /// Creates a replica. The primary is `p_1`.
    pub fn new(cfg: ClusterConfig, me: ProcessId, participation: Participation) -> Self {
        PbftReplica {
            cfg,
            me,
            participation,
            next_slot: 0,
            slots: BTreeMap::new(),
            assigned: BTreeMap::new(),
            exec_cursor: 0,
            executed: Vec::new(),
        }
    }

    fn participants(&self) -> Vec<ProcessId> {
        match self.participation {
            Participation::All => self.cfg.processes().collect(),
            Participation::ActiveQuorum => self
                .cfg
                .processes()
                .take(self.cfg.quorum_size() as usize)
                .collect(),
        }
    }

    fn is_participant(&self, p: ProcessId) -> bool {
        self.participants().contains(&p)
    }

    /// PBFT quorum thresholds: `2f` other prepares, `2f + 1` commits for
    /// `n = 3f + 1`. Generalized to the participant count `m`: prepared
    /// needs `m − f − 1` prepares from others (plus the pre-prepare),
    /// committed needs `m − f` commits.
    fn prepare_threshold(&self) -> usize {
        thresholds::pbft_prepare_quorum(self.participants().len(), self.cfg.f())
    }

    fn commit_threshold(&self) -> usize {
        thresholds::pbft_commit_quorum(self.participants().len(), self.cfg.f())
    }

    fn primary(&self) -> ProcessId {
        ProcessId(1)
    }

    fn on_request(&mut self, ctx: &mut Context<'_, PbftMsg>, op: Op) {
        if self.me != self.primary() || !self.is_participant(self.me) {
            return; // non-primaries ignore; clients retry to the primary
        }
        if let Some(&slot) = self.assigned.get(&(op.client, op.seq)) {
            // Duplicate: re-reply if executed.
            if slot < self.exec_cursor {
                ctx.send(
                    op.client,
                    PbftMsg::Reply {
                        seq: op.seq,
                        result: slot,
                    },
                );
            }
            return;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.assigned.insert((op.client, op.seq), slot);
        let entry = self.slots.entry(slot).or_default();
        entry.op = Some(op.clone());
        for p in self.participants() {
            if p != self.me {
                ctx.send(
                    p,
                    PbftMsg::PrePrepare {
                        slot,
                        op: op.clone(),
                    },
                );
            }
        }
        // The primary counts as prepared for its own proposal.
        self.advance(ctx, slot);
    }

    fn on_pre_prepare(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        from: ProcessId,
        slot: u64,
        op: Op,
    ) {
        if from != self.primary() || !self.is_participant(self.me) {
            return;
        }
        let entry = self.slots.entry(slot).or_default();
        if entry.op.is_some() {
            return; // duplicate
        }
        self.assigned.insert((op.client, op.seq), slot);
        let digest = op.digest();
        entry.op = Some(op);
        for p in self.participants() {
            if p != self.me {
                ctx.send(p, PbftMsg::Prepare { slot, digest });
            }
        }
        self.advance(ctx, slot);
    }

    fn on_prepare(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        from: ProcessId,
        slot: u64,
        digest: Digest,
    ) {
        if !self.is_participant(self.me) {
            return;
        }
        let entry = self.slots.entry(slot).or_default();
        if entry.op.as_ref().is_some_and(|op| op.digest() != digest) {
            return;
        }
        entry.prepares.insert(from);
        self.advance(ctx, slot);
    }

    fn on_commit(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        from: ProcessId,
        slot: u64,
        digest: Digest,
    ) {
        if !self.is_participant(self.me) {
            return;
        }
        let entry = self.slots.entry(slot).or_default();
        if entry.op.as_ref().is_some_and(|op| op.digest() != digest) {
            return;
        }
        entry.commits.insert(from);
        self.advance(ctx, slot);
    }

    /// Drives a slot through prepared → committed → executed.
    fn advance(&mut self, ctx: &mut Context<'_, PbftMsg>, slot: u64) {
        let prepare_needed = self.prepare_threshold();
        let commit_needed = self.commit_threshold();
        let me = self.me;
        let primary = self.primary();
        let participants = self.participants();
        let Some(entry) = self.slots.get_mut(&slot) else {
            return;
        };
        let Some(op) = entry.op.clone() else { return };
        let digest = op.digest();
        // Prepared: pre-prepare + 2f prepares (primary's pre-prepare
        // stands in for its prepare; our own prepare is implicit).
        let enough_prepares = me == primary
            || entry.prepares.iter().filter(|p| **p != me).count()
                >= prepare_needed.saturating_sub(1);
        if !entry.prepared && enough_prepares {
            entry.prepared = true;
            entry.commits.insert(me);
            for p in &participants {
                if *p != me {
                    ctx.send(*p, PbftMsg::Commit { slot, digest });
                }
            }
        }
        if entry.prepared && !entry.committed && entry.commits.len() >= commit_needed {
            entry.committed = true;
        }
        // In-order execution.
        while let Some(e) = self.slots.get(&self.exec_cursor) {
            if !e.committed {
                break;
            }
            // A committed slot always carries its op (set before the
            // prepare/commit phases can begin); stop the execution scan
            // rather than panicking if that invariant ever breaks.
            let Some(op) = e.op.clone() else { break };
            ctx.send(
                op.client,
                PbftMsg::Reply {
                    seq: op.seq,
                    result: self.exec_cursor,
                },
            );
            self.executed.push((self.exec_cursor, op));
            self.exec_cursor += 1;
        }
    }
}

/// A closed-loop PBFT client.
#[derive(Debug)]
pub struct PbftClient {
    me: ProcessId,
    cluster: ClusterConfig,
    max_ops: u64,
    next: u64,
    replies: BTreeMap<u64, BTreeSet<ProcessId>>,
    retry: SimDuration,
    /// Completed operations.
    pub completed: u64,
}

const TIMER_RETRY_BASE: u64 = 1000;

impl PbftClient {
    /// A client with id above the replica range.
    pub fn new(me: ProcessId, cluster: ClusterConfig, retry: SimDuration, max_ops: u64) -> Self {
        assert!(me.0 > cluster.n(), "client id must be above replicas");
        PbftClient {
            me,
            cluster,
            max_ops,
            next: 0,
            replies: BTreeMap::new(),
            retry,
            completed: 0,
        }
    }

    fn issue(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        self.replies.clear();
        ctx.send(
            ProcessId(1),
            PbftMsg::Request(Op {
                client: self.me,
                seq: self.next,
            }),
        );
        ctx.set_timer(self.retry, TimerId(TIMER_RETRY_BASE + self.next));
    }
}

impl Actor<PbftMsg> for PbftClient {
    fn on_start(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if self.max_ops > 0 {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PbftMsg>, from: ProcessId, msg: PbftMsg) {
        let PbftMsg::Reply { seq, result: _ } = msg else {
            return;
        };
        if seq != self.next || self.next >= self.max_ops {
            return;
        }
        let set = self.replies.entry(seq).or_default();
        set.insert(from);
        if thresholds::reply_quorum_reached(self.cluster.f(), set.len()) {
            self.completed += 1;
            self.next += 1;
            if self.next < self.max_ops {
                self.issue(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PbftMsg>, timer: TimerId) {
        let TimerId(id) = timer;
        if id >= TIMER_RETRY_BASE && id - TIMER_RETRY_BASE == self.next && self.next < self.max_ops
        {
            self.issue(ctx);
        }
    }
}

/// A PBFT simulation participant.
#[derive(Debug)]
pub enum PbftNode {
    /// A replica.
    Replica(PbftReplica),
    /// A client.
    Client(PbftClient),
}

impl Actor<PbftMsg> for PbftNode {
    fn on_start(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if let PbftNode::Client(c) = self {
            c.on_start(ctx);
        }
    }

    /// P1: every wire variant is routed by name (no wildcard arm).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn on_message(&mut self, ctx: &mut Context<'_, PbftMsg>, from: ProcessId, msg: PbftMsg) {
        match self {
            PbftNode::Replica(r) => match msg {
                PbftMsg::Request(op) => r.on_request(ctx, op),
                PbftMsg::PrePrepare { slot, op } => r.on_pre_prepare(ctx, from, slot, op),
                PbftMsg::Prepare { slot, digest } => r.on_prepare(ctx, from, slot, digest),
                PbftMsg::Commit { slot, digest } => r.on_commit(ctx, from, slot, digest),
                PbftMsg::Reply { .. } => {}
            },
            PbftNode::Client(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PbftMsg>, timer: TimerId) {
        if let PbftNode::Client(c) = self {
            c.on_timer(ctx, timer);
        }
    }
}

/// Result of [`run_workload`].
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Operations committed by the client.
    pub committed: u64,
    /// Total inter-replica messages (pre-prepare + prepare + commit).
    pub inter_replica_messages: u64,
    /// Inter-replica messages per committed operation.
    pub per_op: f64,
    /// Total messages including client traffic.
    pub total_messages: u64,
}

/// Runs `ops` operations through a fault-free PBFT cluster and reports the
/// message counts (experiment E8).
pub fn run_workload(
    cfg: ClusterConfig,
    participation: Participation,
    ops: u64,
    seed: u64,
) -> WorkloadReport {
    let mut actors: Vec<PbftNode> = cfg
        .processes()
        .map(|p| PbftNode::Replica(PbftReplica::new(cfg, p, participation)))
        .collect();
    let client_id = ProcessId(cfg.n() + 1);
    actors.push(PbftNode::Client(PbftClient::new(
        client_id,
        cfg,
        SimDuration::millis(50),
        ops,
    )));
    let mut sim = Simulation::new(SimConfig::new(cfg.n() + 1, seed), actors);
    sim.set_classifier(|m: &PbftMsg| m.kind());
    sim.run_until(SimTime::from_micros(1_000_000 + ops * 10_000));
    let stats = sim.stats();
    let inter: u64 = ["pre-prepare", "prepare", "commit"]
        .iter()
        .map(|k| stats.by_kind.get(*k).copied().unwrap_or(0))
        .sum();
    let committed = match sim.actor(client_id) {
        PbftNode::Client(c) => c.completed,
        // `client_id` is constructed as a client above; report zero
        // commits rather than panicking if the wiring ever changes.
        PbftNode::Replica(_) => 0,
    };
    WorkloadReport {
        committed,
        inter_replica_messages: inter,
        per_op: if committed > 0 {
            inter as f64 / committed as f64
        } else {
            f64::NAN
        },
        total_messages: stats.messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_commits_all_ops() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let report = run_workload(cfg, Participation::All, 10, 1);
        assert_eq!(report.committed, 10);
    }

    #[test]
    fn active_quorum_commits_all_ops() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let report = run_workload(cfg, Participation::ActiveQuorum, 10, 2);
        assert_eq!(report.committed, 10);
    }

    #[test]
    fn message_counts_match_formula() {
        // Full PBFT on n replicas, per request:
        //   pre-prepare: n − 1
        //   prepare:     (n − 1)(n − 1)  (every non-primary to all others)
        //   commit:      n(n − 1)
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let n = 4u64;
        let report = run_workload(cfg, Participation::All, 20, 3);
        let expected = (n - 1) + (n - 1) * (n - 1) + n * (n - 1);
        assert_eq!(report.committed, 20);
        assert_eq!(report.per_op, expected as f64);
    }

    #[test]
    fn active_quorum_reduces_messages() {
        // n = 3f+1 = 7, active quorum m = n − f = 5: the active-quorum mode
        // must use strictly fewer inter-replica messages per op; the ratio
        // approaches (m/n)² ≈ (2/3)² for the quadratic phases.
        let cfg = ClusterConfig::new(7, 2).unwrap();
        let full = run_workload(cfg, Participation::All, 20, 4);
        let active = run_workload(cfg, Participation::ActiveQuorum, 20, 5);
        assert_eq!(full.committed, 20);
        assert_eq!(active.committed, 20);
        assert!(
            active.per_op < full.per_op,
            "active {} !< full {}",
            active.per_op,
            full.per_op
        );
        let m = 5f64;
        let n = 7f64;
        let expected_full = (n - 1.0) + (n - 1.0) * (n - 1.0) + n * (n - 1.0);
        let expected_active = (m - 1.0) + (m - 1.0) * (m - 1.0) + m * (m - 1.0);
        assert_eq!(full.per_op, expected_full);
        assert_eq!(active.per_op, expected_active);
    }

    #[test]
    fn executions_agree_across_replicas() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let mut actors: Vec<PbftNode> = cfg
            .processes()
            .map(|p| PbftNode::Replica(PbftReplica::new(cfg, p, Participation::All)))
            .collect();
        actors.push(PbftNode::Client(PbftClient::new(
            ProcessId(5),
            cfg,
            SimDuration::millis(50),
            15,
        )));
        let mut sim = Simulation::new(SimConfig::new(5, 6), actors);
        sim.run_until(SimTime::from_micros(2_000_000));
        let logs: Vec<Vec<(u64, Op)>> = (1..=4)
            .filter_map(|i| match sim.actor(ProcessId(i)) {
                PbftNode::Replica(r) => Some(r.executed.clone()),
                PbftNode::Client(_) => None,
            })
            .collect();
        assert_eq!(logs.len(), 4);
        for l in &logs[1..] {
            let common = l.len().min(logs[0].len());
            assert_eq!(&l[..common], &logs[0][..common]);
        }
        assert!(logs[0].len() >= 15);
    }
}
