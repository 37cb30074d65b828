//! Ready-made simulation harness: replicas + clients + Byzantine variants.

use std::collections::{BTreeMap, VecDeque};

use qsel_obs::{TraceEvent, TraceSink};
use qsel_simnet::{Actor, Context, SimConfig, SimDuration, SimTime, Simulation, TimerId};
use qsel_types::crypto::{Keychain, Signer};
use qsel_types::{thresholds, ClusterConfig, ProcessId};

use crate::client::{Client, ReplyTally};
use crate::messages::{Batch, CompactEntry, PreparePayload, Reply, Request, XpMsg};
use crate::replica::{Replica, ReplicaConfig};

/// A participant of an XPaxos simulation.
///
/// The `Replica` variant dwarfs the others, but actors are stored once
/// per process in the simulator's actor table and never moved, so the
/// size skew costs nothing; boxing would only add indirection.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum XpActor {
    /// A correct replica.
    Replica(Replica),
    /// A client.
    Client(Client),
    /// An open-loop client that issues requests on a fixed cadence.
    OpenClient(OpenLoopClient),
    /// A replica that never sends anything.
    Mute,
    /// A Byzantine leader that equivocates on the first request it sees
    /// (sends conflicting PREPAREs to different followers), then goes
    /// quiet.
    Equivocator(Equivocator),
    /// A gray-failed replica: honest protocol, but every incoming message
    /// is processed late ([`GrayReplica`]).
    Gray(GrayReplica),
    /// A Byzantine state-transfer donor: honest protocol, but every chunk
    /// it serves is tampered with ([`CorruptTransferPeer`]).
    CorruptTransfer(CorruptTransferPeer),
}

impl XpActor {
    /// The wrapped replica, if any. A [`GrayReplica`] exposes its inner
    /// honest replica: it runs the unmodified protocol (merely late), so
    /// its log participates in safety cross-checks.
    pub fn replica(&self) -> Option<&Replica> {
        match self {
            XpActor::Replica(r) => Some(r),
            XpActor::Gray(g) => Some(&g.inner),
            // Its local log runs the honest protocol (only the chunks it
            // serves are forged on the way out), so it participates in
            // safety cross-checks too.
            XpActor::CorruptTransfer(c) => Some(&c.inner),
            _ => None,
        }
    }

    /// The wrapped closed-loop client, if any.
    pub fn client(&self) -> Option<&Client> {
        match self {
            XpActor::Client(c) => Some(c),
            _ => None,
        }
    }

    /// The wrapped open-loop client, if any.
    pub fn open_client(&self) -> Option<&OpenLoopClient> {
        match self {
            XpActor::OpenClient(c) => Some(c),
            _ => None,
        }
    }

    /// Operations this actor has committed, if it is any kind of client.
    pub fn committed_ops(&self) -> Option<u64> {
        match self {
            XpActor::Client(c) => Some(c.committed_ops()),
            XpActor::OpenClient(c) => Some(c.committed_ops()),
            _ => None,
        }
    }
}

impl Actor<XpMsg> for XpActor {
    fn on_start(&mut self, ctx: &mut Context<'_, XpMsg>) {
        match self {
            XpActor::Replica(r) => r.handle_start(ctx),
            XpActor::Client(c) => c.on_start(ctx),
            XpActor::OpenClient(c) => c.on_start(ctx),
            XpActor::Mute => {}
            XpActor::Equivocator(_) => {}
            XpActor::Gray(g) => g.on_start(ctx),
            XpActor::CorruptTransfer(c) => c.inner.handle_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, msg: XpMsg) {
        match self {
            XpActor::Replica(r) => r.handle_message(ctx, from, msg),
            XpActor::Client(c) => c.on_message(ctx, from, msg),
            XpActor::OpenClient(c) => c.on_message(ctx, from, msg),
            XpActor::Mute => {}
            XpActor::Equivocator(e) => e.on_message(ctx, msg),
            XpActor::Gray(g) => g.on_message(ctx, from, msg),
            XpActor::CorruptTransfer(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, XpMsg>, timer: TimerId) {
        match self {
            XpActor::Replica(r) => r.handle_timer(ctx, timer),
            XpActor::Client(c) => c.on_timer(ctx, timer),
            XpActor::OpenClient(c) => c.on_timer(ctx, timer),
            XpActor::Mute => {}
            XpActor::Equivocator(_) => {}
            XpActor::Gray(g) => g.on_timer(ctx, timer),
            XpActor::CorruptTransfer(c) => c.inner.handle_timer(ctx, timer),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, XpMsg>) {
        match self {
            XpActor::Replica(r) => r.handle_recover(ctx),
            XpActor::Client(c) => c.on_recover(ctx),
            XpActor::OpenClient(c) => c.on_recover(ctx),
            XpActor::Mute => {}
            XpActor::Equivocator(_) => {}
            XpActor::Gray(g) => g.on_recover(ctx),
            XpActor::CorruptTransfer(c) => c.inner.handle_recover(ctx),
        }
    }
}

/// Deferred-delivery timer used by [`GrayReplica`]. The inner replica's
/// own timers are `TimerId(1..=4)` and `TimerId(1000..)` (view-change
/// generation tags), so 900 is free.
const TIMER_GRAY: TimerId = TimerId(900);

/// A gray-failed replica: it runs the honest protocol on unmodified state,
/// but every incoming message is buffered and handled `delay` after
/// arrival. Timer-driven behaviour (heartbeats, detector polls) stays
/// prompt — the process looks alive to naive liveness probes while its
/// request processing crawls. This is the "slow but not silent" leader of
/// the gray-failure literature, and the misbehaviour is *not* expressible
/// as a link fault: outbound traffic the replica originates on timers is
/// unaffected, only its reaction to peers lags.
#[derive(Debug)]
pub struct GrayReplica {
    inner: Replica,
    delay: SimDuration,
    buf: VecDeque<(ProcessId, XpMsg)>,
}

impl GrayReplica {
    /// Wraps `inner`, delaying each incoming message by `delay`.
    pub fn new(inner: Replica, delay: SimDuration) -> Self {
        GrayReplica {
            inner,
            delay,
            buf: VecDeque::new(),
        }
    }

    /// The wrapped honest replica.
    pub fn inner(&self) -> &Replica {
        &self.inner
    }

    fn on_start(&mut self, ctx: &mut Context<'_, XpMsg>) {
        self.inner.handle_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, msg: XpMsg) {
        self.buf.push_back((from, msg));
        ctx.set_timer(self.delay, TIMER_GRAY);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, XpMsg>, timer: TimerId) {
        if timer == TIMER_GRAY {
            if let Some((from, msg)) = self.buf.pop_front() {
                self.inner.handle_message(ctx, from, msg);
            }
        } else {
            self.inner.handle_timer(ctx, timer);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, XpMsg>) {
        // Deferred messages and their timers died with the crash.
        self.buf.clear();
        self.inner.handle_recover(ctx);
    }
}

/// A Byzantine state-transfer donor. It runs the honest protocol on
/// unmodified state — so it builds a complete log and advertises an
/// attractive frontier to recovering peers — but answers every
/// `SyncFetch` itself with *tampered* chunks: the claimed slots and MMR
/// proofs are genuine while the batch contents are flipped. A correct
/// recoverer must detect the mismatch when it verifies each entry against
/// the certified MMR root (the leaf hash no longer matches the proof),
/// reject the chunk without applying anything, and fail over to another
/// donor.
#[derive(Debug)]
pub struct CorruptTransferPeer {
    inner: Replica,
}

impl CorruptTransferPeer {
    /// Wraps `inner`, forging every state-transfer chunk it serves.
    pub fn new(inner: Replica) -> Self {
        CorruptTransferPeer { inner }
    }

    /// The wrapped (locally honest) replica.
    pub fn inner(&self) -> &Replica {
        &self.inner
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, msg: XpMsg) {
        let XpMsg::SyncFetch {
            from_slot,
            to_slot,
            proof_slot,
        } = msg
        else {
            self.inner.handle_message(ctx, from, msg);
            return;
        };
        // Serve the requested range like an honest donor would, but with
        // the first request of every batch flipped. Proofs stay genuine:
        // the forgery must be caught by content verification, not by a
        // malformed-proof shortcut.
        let log = self.inner.log();
        let to = to_slot.min(proof_slot).min(log.watermark());
        let mut entries = Vec::new();
        for slot in from_slot..to {
            let Some(batch) = log.batch_at(slot) else { break };
            let Ok(proof) = log.mmr().proof_at(slot, proof_slot) else {
                break;
            };
            let mut reqs = batch.reqs().to_vec();
            if let Some(r) = reqs.first_mut() {
                r.payload ^= 0xBAD;
            }
            entries.push(CompactEntry {
                slot,
                batch: Batch::new(reqs),
                proof,
            });
        }
        ctx.send(
            from,
            XpMsg::SyncChunk {
                entries,
                proof_slot,
            },
        );
    }
}

/// Pacing timer of [`OpenLoopClient`]; its only other timers never exist.
const TIMER_PACE: TimerId = TimerId(1);

/// An open-loop client: issues one request every `interarrival` regardless
/// of whether earlier requests completed, up to `max_ops` total. There are
/// no retransmissions — a request lost to faults simply never commits —
/// so sustained overload or partitions show up as a commit-fraction drop
/// rather than a latency explosion, which is what open-loop workloads
/// (flash crowds) are for.
#[derive(Debug)]
pub struct OpenLoopClient {
    me: ProcessId,
    cluster: ClusterConfig,
    interarrival: SimDuration,
    max_ops: u64,
    issued: u64,
    sent_at: BTreeMap<u64, SimTime>,
    /// Replies per in-flight op.
    tally: BTreeMap<u64, ReplyTally>,
    /// (op, result, latency) for every completed operation.
    pub completed: Vec<(u64, u64, SimDuration)>,
    trace: TraceSink,
}

impl OpenLoopClient {
    /// An open-loop client with id `me` (outside the replica id range)
    /// issuing `max_ops` operations one `interarrival` apart.
    pub fn new(
        me: ProcessId,
        cluster: ClusterConfig,
        interarrival: SimDuration,
        max_ops: u64,
    ) -> Self {
        assert!(
            me.0 > cluster.n(),
            "client ids must lie above the replica range"
        );
        OpenLoopClient {
            me,
            cluster,
            interarrival,
            max_ops,
            issued: 0,
            sent_at: BTreeMap::new(),
            tally: BTreeMap::new(),
            completed: Vec::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Installs a trace sink (typically a clone of the simulation's).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Completed operation count.
    pub fn committed_ops(&self) -> u64 {
        self.completed.len() as u64
    }

    /// Operations issued so far.
    pub fn issued_ops(&self) -> u64 {
        self.issued
    }

    fn issue_next(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let op = self.issued;
        self.issued += 1;
        self.sent_at.insert(op, ctx.now());
        let req = Request {
            client: self.me,
            op,
            payload: op * 31 + u64::from(self.me.0),
        };
        for r in self.cluster.processes() {
            ctx.send(r, XpMsg::Request(req.clone()));
        }
        if self.issued < self.max_ops {
            ctx.set_timer(self.interarrival, TIMER_PACE);
        }
    }

    fn on_reply(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, reply: Reply) {
        // An issued op leaves `sent_at` when it completes.
        let Some(&sent) = self.sent_at.get(&reply.op) else {
            return; // unknown or already completed
        };
        if !self.cluster.contains(from) {
            return; // only replicas count toward the reply quorum
        }
        let matching = self
            .tally
            .entry(reply.op)
            .or_default()
            .record(reply.result, from);
        if thresholds::reply_quorum_reached(self.cluster.f(), matching) {
            self.sent_at.remove(&reply.op);
            let latency = ctx.now() - sent;
            self.tally.remove(&reply.op);
            self.completed.push((reply.op, reply.result, latency));
            self.trace.emit(|| TraceEvent::ClientCommit {
                client: self.me.0,
                op: reply.op,
                latency_us: latency.as_micros(),
            });
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, XpMsg>) {
        if self.max_ops > 0 {
            self.issue_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, msg: XpMsg) {
        if let XpMsg::Reply(r) = msg {
            self.on_reply(ctx, from, r);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, XpMsg>, timer: TimerId) {
        if timer == TIMER_PACE && self.issued < self.max_ops {
            self.issue_next(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, XpMsg>) {
        // The pacing timer died with the process; resume the cadence.
        if self.issued < self.max_ops {
            ctx.set_timer(self.interarrival, TIMER_PACE);
        }
    }
}

/// Byzantine leader: equivocates once (conflicting PREPAREs for slot 0 in
/// view 0), providing the commission-failure evidence the failure
/// detector's `⟨DETECTED⟩` path needs.
#[derive(Debug)]
pub struct Equivocator {
    cfg: ClusterConfig,
    signer: Signer,
    fired: bool,
}

impl Equivocator {
    /// An equivocator that must be placed at the view-0 leader (`p_1`).
    pub fn new(cfg: ClusterConfig, chain: &Keychain, me: ProcessId) -> Self {
        Equivocator {
            cfg,
            signer: chain.signer(me),
            fired: false,
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XpMsg>, msg: XpMsg) {
        let XpMsg::Request(req) = msg else { return };
        if self.fired {
            return;
        }
        self.fired = true;
        let me = self.signer.id();
        let make = |payload: u64| -> PreparePayload {
            PreparePayload {
                view: 0,
                slot: 0,
                batch: Batch::single(Request {
                    client: req.client,
                    op: req.op,
                    payload,
                }),
            }
        };
        let members: Vec<ProcessId> = self
            .cfg
            .default_quorum_members()
            .into_iter()
            .filter(|p| *p != me)
            .collect();
        for (i, k) in members.iter().enumerate() {
            // Half the followers see payload A, the rest payload B.
            let payload = if i % 2 == 0 { 1 } else { 2 };
            ctx.send(*k, XpMsg::Prepare(self.signer.sign(make(payload))));
        }
    }
}

/// Builder for an XPaxos simulation: `n` replicas (ids `1..=n`) and
/// `clients` client actors (ids `n+1..`).
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    rcfg: ReplicaConfig,
    clients: u32,
    ops_per_client: u64,
    seed: u64,
    retry: SimDuration,
    tx_cost: SimDuration,
    open_interarrival: Option<SimDuration>,
    trace: TraceSink,
}

impl ClusterBuilder {
    /// A builder with the given cluster shape.
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        ClusterBuilder {
            cfg,
            rcfg: ReplicaConfig::default(),
            clients: 1,
            ops_per_client: 10,
            seed,
            retry: SimDuration::millis(20),
            tx_cost: SimDuration::ZERO,
            open_interarrival: None,
            trace: TraceSink::disabled(),
        }
    }

    /// Sets the replica configuration.
    #[must_use]
    pub fn replica_config(mut self, rcfg: ReplicaConfig) -> Self {
        self.rcfg = rcfg;
        self
    }

    /// Sets the client count and per-client operation budget.
    #[must_use]
    pub fn clients(mut self, clients: u32, ops_per_client: u64) -> Self {
        self.clients = clients;
        self.ops_per_client = ops_per_client;
        self
    }

    /// Sets the client retry interval.
    #[must_use]
    pub fn retry(mut self, retry: SimDuration) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the network's per-message egress serialization cost
    /// ([`qsel_simnet::SimConfig::tx_cost`]); the `ZERO` default leaves
    /// the network a pure-delay model.
    #[must_use]
    pub fn tx_cost(mut self, tx_cost: SimDuration) -> Self {
        self.tx_cost = tx_cost;
        self
    }

    /// Switches the built clients from closed-loop (retrying) [`Client`]s
    /// to open-loop [`OpenLoopClient`]s issuing one request every
    /// `interarrival`; the per-client operation budget from
    /// [`ClusterBuilder::clients`] still applies.
    #[must_use]
    pub fn open_loop(mut self, interarrival: SimDuration) -> Self {
        self.open_interarrival = Some(interarrival);
        self
    }

    /// Installs a trace sink: the simulation and every built replica
    /// (including its failure detector and quorum-selection module) and
    /// client get clones sharing one buffer and ambient clock. Custom
    /// actors from `build_with` are wired too. The default (disabled)
    /// sink records nothing at zero cost.
    #[must_use]
    pub fn trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The keychain the built cluster will use (for crafting Byzantine
    /// actors that must share it).
    pub fn keychain(&self) -> Keychain {
        Keychain::new(&self.cfg, self.seed)
    }

    /// Builds the simulation, customizing individual replica actors via
    /// `make_replica` (return `None` for the default correct replica).
    pub fn build_with(
        self,
        mut make_replica: impl FnMut(ProcessId, &Keychain) -> Option<XpActor>,
    ) -> Simulation<XpMsg, XpActor> {
        let chain = self.keychain();
        let total = self.cfg.n() + self.clients;
        let mut actors: Vec<XpActor> = Vec::new();
        for p in self.cfg.processes() {
            let mut actor = make_replica(p, &chain).unwrap_or_else(|| {
                XpActor::Replica(Replica::new(self.cfg, p, &chain, self.rcfg.clone()))
            });
            match &mut actor {
                XpActor::Replica(r) => r.set_trace_sink(self.trace.clone()),
                XpActor::Gray(g) => g.inner.set_trace_sink(self.trace.clone()),
                XpActor::CorruptTransfer(c) => c.inner.set_trace_sink(self.trace.clone()),
                _ => {}
            }
            actors.push(actor);
        }
        for c in 0..self.clients {
            let id = ProcessId(self.cfg.n() + c + 1);
            match self.open_interarrival {
                Some(interarrival) => {
                    let mut client =
                        OpenLoopClient::new(id, self.cfg, interarrival, self.ops_per_client);
                    client.set_trace_sink(self.trace.clone());
                    actors.push(XpActor::OpenClient(client));
                }
                None => {
                    let mut client = Client::new(id, self.cfg, self.retry, self.ops_per_client);
                    client.set_trace_sink(self.trace.clone());
                    actors.push(XpActor::Client(client));
                }
            }
        }
        let scfg = SimConfig::new(total, self.seed).with_tx_cost(self.tx_cost);
        let mut sim = Simulation::new(scfg, actors);
        sim.set_classifier(|m: &XpMsg| m.kind());
        sim.set_trace_sink(self.trace);
        sim
    }

    /// Builds an all-correct cluster.
    pub fn build(self) -> Simulation<XpMsg, XpActor> {
        self.build_with(|_, _| None)
    }
}

/// Asserts the fundamental safety property across all correct replicas:
/// no two replicas executed a different request *sequence* at the same
/// slot (a batched slot executes several requests, in batch order).
///
/// # Panics
///
/// Panics with a description of the violation, if any.
pub fn assert_safety(sim: &Simulation<XpMsg, XpActor>) {
    let mut reference: std::collections::BTreeMap<u64, Vec<&Request>> =
        std::collections::BTreeMap::new();
    for id in sim.ids().collect::<Vec<_>>() {
        if let Some(r) = sim.actor(id).replica() {
            // Group this replica's executions by slot, preserving order.
            let mut per_slot: std::collections::BTreeMap<u64, Vec<&Request>> =
                std::collections::BTreeMap::new();
            for (slot, req) in &r.log().executed {
                per_slot.entry(*slot).or_default().push(req);
            }
            for (slot, reqs) in per_slot {
                match reference.get(&slot) {
                    None => {
                        reference.insert(slot, reqs);
                    }
                    Some(existing) => assert_eq!(
                        *existing, reqs,
                        "safety violation at slot {slot}: {existing:?} vs {reqs:?} (replica {id})"
                    ),
                }
            }
        }
    }
}

/// Total operations committed across all clients (both loop modes).
pub fn total_committed(sim: &Simulation<XpMsg, XpActor>) -> u64 {
    sim.ids()
        .collect::<Vec<_>>()
        .into_iter()
        .filter_map(|id| sim.actor(id).committed_ops())
        .sum()
}
