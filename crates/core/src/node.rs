//! The per-process module composition of Figure 1: network → failure
//! detector → { quorum selection | application }.
//!
//! [`SelectorNode`] wires a [`FailureDetector`] to either Algorithm 1
//! ([`QuorumSelection`]) or Algorithm 2 ([`FollowerSelection`]) and runs a
//! signed-heartbeat application on top, so that crash, omission and timing
//! failures become expectations → suspicions → quorum changes, end to end.
//! It implements [`qsel_simnet::Actor`] and is the building block of the
//! integration tests, the examples and experiment E12.
//!
//! Events between modules at one process are handled in the order they are
//! produced (paper §IV), via an internal FIFO work queue.

use std::collections::VecDeque;

use qsel_detector::{Expected, FailureDetector, FdConfig, PollSchedule};
use qsel_simnet::{Actor, Context, SimDuration, SimTime, TimerId};
use qsel_types::crypto::{Signer, Verifier};
use qsel_types::encode::Encode;
use qsel_types::{ClusterConfig, Epoch, LeaderQuorum, ProcessId, ProcessSet, Quorum, Signed};

use crate::follower_selection::{FollowerSelection, FsOutput};
use crate::messages::{SignedFollowers, SignedUpdate};
use crate::quorum_selection::{QsOutput, QuorumSelection};

/// Timer tags used by [`SelectorNode`].
const TIMER_HEARTBEAT: TimerId = TimerId(1);
const TIMER_FD_POLL: TimerId = TimerId(2);

/// A signed heartbeat (the application payload driving failure detection).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Heartbeat {
    /// Monotone sequence number.
    pub seq: u64,
}

impl Encode for Heartbeat {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"HRTB");
        self.seq.encode(buf);
    }
}

/// Wire messages exchanged by [`SelectorNode`]s.
#[derive(Clone, Debug)]
pub enum ServiceMsg {
    /// An Algorithm 1/2 `UPDATE`.
    Update(SignedUpdate),
    /// An Algorithm 2 `FOLLOWERS`.
    Followers(SignedFollowers),
    /// An application heartbeat.
    Heartbeat(Signed<Heartbeat>),
}

impl ServiceMsg {
    /// A short kind tag for traffic statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceMsg::Update(_) => "update",
            ServiceMsg::Followers(_) => "followers",
            ServiceMsg::Heartbeat(_) => "heartbeat",
        }
    }
}

/// The messages a node tells its failure detector to expect: one variant
/// per expectation label, carrying the fields it matches on.
#[derive(Clone, Copy, Debug)]
enum ServiceExpect {
    /// Any heartbeat from a peer.
    Heartbeat,
    /// The leader's FOLLOWERS for `epoch` (Algorithm 2's `P_{Fw,epoch}`).
    Followers { epoch: Epoch },
}

impl Expected<ServiceMsg> for ServiceExpect {
    fn is_met_by(&self, m: &ServiceMsg) -> bool {
        match *self {
            ServiceExpect::Heartbeat => matches!(m, ServiceMsg::Heartbeat(_)),
            ServiceExpect::Followers { epoch } => matches!(
                m,
                ServiceMsg::Followers(sf) if sf.payload.epoch == epoch
            ),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            ServiceExpect::Heartbeat => "heartbeat",
            ServiceExpect::Followers { .. } => "followers",
        }
    }
}

/// Which selection algorithm a node runs.
#[derive(Debug)]
enum Selector {
    Quorum(QuorumSelection),
    Follower(FollowerSelection),
}

/// A quorum output recorded by a node, with its issue time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuorumEvent {
    /// Algorithm 1 output.
    Plain(Quorum),
    /// Algorithm 2 output.
    Leader(LeaderQuorum),
}

/// Configuration of a [`SelectorNode`].
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Heartbeat broadcast period.
    pub heartbeat_period: SimDuration,
    /// Failure-detector timeouts.
    pub fd: FdConfig,
}

impl Default for NodeConfig {
    /// 5ms heartbeats with the default detector timeouts.
    fn default() -> Self {
        NodeConfig {
            heartbeat_period: SimDuration::millis(5),
            fd: FdConfig::default(),
        }
    }
}

/// One process of a quorum-selection service cluster (Fig. 1).
///
/// # Example
///
/// Running a 4-process cluster and crashing one member; the survivors agree
/// on a quorum excluding it:
///
/// ```
/// use qsel::node::{NodeConfig, SelectorNode, ServiceMsg};
/// use qsel_simnet::{SimConfig, SimTime, Simulation};
/// use qsel_types::crypto::Keychain;
/// use qsel_types::{ClusterConfig, ProcessId};
///
/// let cfg = ClusterConfig::new(4, 1).unwrap();
/// let chain = Keychain::new(&cfg, 3);
/// let nodes: Vec<SelectorNode> = cfg
///     .processes()
///     .map(|p| SelectorNode::new_quorum(cfg, p, &chain, NodeConfig::default()))
///     .collect();
/// let mut sim = Simulation::new(SimConfig::new(4, 3), nodes);
/// sim.start();
/// sim.crash(ProcessId(4));
/// sim.run_until(SimTime::from_micros(200_000));
/// for p in [1, 2, 3].map(ProcessId) {
///     let quorum = sim.actor(p).current_plain_quorum().unwrap();
///     assert!(!quorum.contains(ProcessId(4)));
/// }
/// ```
#[derive(Debug)]
pub struct SelectorNode {
    cfg: ClusterConfig,
    me: ProcessId,
    node_cfg: NodeConfig,
    signer: Signer,
    verifier: Verifier,
    fd: FailureDetector<ServiceMsg, ServiceExpect>,
    /// The `TIMER_FD_POLL` timers in flight.
    polls: PollSchedule,
    selector: Selector,
    hb_seq: u64,
    history: Vec<(SimTime, QuorumEvent)>,
}

/// Internal inter-module events, processed in production order.
enum Work {
    /// `⟨DELIVER⟩`: an authenticated message the detector has observed.
    Deliver(ServiceMsg),
    /// `⟨SUSPECTED, S⟩`: the detector's suspicion set changed.
    Suspected(ProcessSet),
    Qs(Vec<QsOutput>),
    Fs(Vec<FsOutput>),
}

impl SelectorNode {
    /// Creates a node running Algorithm 1 (Quorum Selection).
    pub fn new_quorum(
        cfg: ClusterConfig,
        me: ProcessId,
        chain: &qsel_types::crypto::Keychain,
        node_cfg: NodeConfig,
    ) -> Self {
        let selector = Selector::Quorum(QuorumSelection::new(
            cfg,
            me,
            chain.signer(me),
            chain.verifier(),
        ));
        Self::build(cfg, me, chain, node_cfg, selector)
    }

    /// Creates a node running Algorithm 2 (Follower Selection). Requires
    /// `n > 3f`.
    pub fn new_follower(
        cfg: ClusterConfig,
        me: ProcessId,
        chain: &qsel_types::crypto::Keychain,
        node_cfg: NodeConfig,
    ) -> Self {
        let selector = Selector::Follower(FollowerSelection::new(
            cfg,
            me,
            chain.signer(me),
            chain.verifier(),
        ));
        Self::build(cfg, me, chain, node_cfg, selector)
    }

    fn build(
        cfg: ClusterConfig,
        me: ProcessId,
        chain: &qsel_types::crypto::Keychain,
        node_cfg: NodeConfig,
        selector: Selector,
    ) -> Self {
        SelectorNode {
            cfg,
            me,
            signer: chain.signer(me),
            verifier: chain.verifier(),
            fd: FailureDetector::new(me, cfg.n(), node_cfg.fd.clone()),
            polls: PollSchedule::new(),
            selector,
            hb_seq: 0,
            history: Vec::new(),
            node_cfg,
        }
    }

    /// All quorum events issued by this node, with timestamps.
    pub fn quorum_history(&self) -> &[(SimTime, QuorumEvent)] {
        &self.history
    }

    /// The most recent Algorithm 1 quorum (initial quorum if none issued).
    /// `None` when running Follower Selection.
    pub fn current_plain_quorum(&self) -> Option<Quorum> {
        match &self.selector {
            Selector::Quorum(qs) => Some(qs.current_quorum()),
            Selector::Follower(_) => None,
        }
    }

    /// The most recent leader quorum. `None` when running Quorum Selection.
    pub fn current_leader_quorum(&self) -> Option<LeaderQuorum> {
        match &self.selector {
            Selector::Follower(fs) => LeaderQuorum::of(
                &self.cfg,
                fs.leader(),
                fs.current_members().iter(),
            )
            .ok(),
            Selector::Quorum(_) => None,
        }
    }

    /// The selector's current epoch.
    pub fn epoch(&self) -> Epoch {
        match &self.selector {
            Selector::Quorum(qs) => qs.epoch(),
            Selector::Follower(fs) => fs.epoch(),
        }
    }

    /// Selection statistics.
    pub fn selection_stats(&self) -> &crate::stats::SelectionStats {
        match &self.selector {
            Selector::Quorum(qs) => qs.stats(),
            Selector::Follower(fs) => fs.stats(),
        }
    }

    /// Failure-detector statistics.
    pub fn fd_stats(&self) -> qsel_detector::FdStats {
        self.fd.stats()
    }

    /// The set currently suspected by this node's failure detector.
    pub fn suspected(&self) -> ProcessSet {
        self.fd.suspected_set()
    }

    fn peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let me = self.me;
        self.cfg.processes().filter(move |p| *p != me)
    }

    /// Authenticates a network message: checks the embedded signature and
    /// returns the authenticated origin. Unauthenticatable messages are
    /// dropped (they cannot be attributed to any process).
    fn authenticate(&self, msg: &ServiceMsg) -> Option<ProcessId> {
        let ok = match msg {
            ServiceMsg::Update(u) => self.verifier.verify(u).is_ok(),
            ServiceMsg::Followers(f) => self.verifier.verify(f).is_ok(),
            ServiceMsg::Heartbeat(h) => self.verifier.verify(h).is_ok(),
        };
        if !ok {
            return None;
        }
        Some(match msg {
            ServiceMsg::Update(u) => u.signer,
            ServiceMsg::Followers(f) => f.signer,
            ServiceMsg::Heartbeat(h) => h.signer,
        })
    }

    fn heartbeat_tick(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        let now = ctx.now();
        // Expect a heartbeat from every peer, then send our own.
        for peer in self.cfg.processes().filter(|p| *p != self.me) {
            self.fd
                .arm(now, peer, SimDuration::ZERO, ServiceExpect::Heartbeat);
        }
        self.hb_seq += 1;
        let hb = ServiceMsg::Heartbeat(self.signer.sign(Heartbeat { seq: self.hb_seq }));
        ctx.send_all(self.peers(), hb);
        ctx.set_timer(self.node_cfg.heartbeat_period, TIMER_HEARTBEAT);
        self.rearm_fd_timer(ctx);
    }

    fn rearm_fd_timer(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        if let Some(delay) = self.polls.arm(ctx.now(), self.fd.next_deadline()) {
            ctx.set_timer(delay, TIMER_FD_POLL);
        }
    }

    /// Drains the inter-module work queue, routing each module's outputs to
    /// its consumers in production order.
    fn pump(&mut self, ctx: &mut Context<'_, ServiceMsg>, first: impl IntoIterator<Item = Work>) {
        let mut queue: VecDeque<Work> = first.into_iter().collect();
        while let Some(work) = queue.pop_front() {
            match work {
                Work::Deliver(msg) => match msg {
                    ServiceMsg::Update(u) => match &mut self.selector {
                        Selector::Quorum(qs) => queue.push_back(Work::Qs(qs.on_update(u))),
                        Selector::Follower(fs) => queue.push_back(Work::Fs(fs.on_update(u))),
                    },
                    ServiceMsg::Followers(f) => {
                        if let Selector::Follower(fs) = &mut self.selector {
                            queue.push_back(Work::Fs(fs.on_followers(f)));
                        }
                    }
                    ServiceMsg::Heartbeat(_) => {}
                },
                Work::Suspected(s) => match &mut self.selector {
                    Selector::Quorum(qs) => queue.push_back(Work::Qs(qs.on_suspected(s))),
                    Selector::Follower(fs) => queue.push_back(Work::Fs(fs.on_suspected(s))),
                },
                Work::Qs(outputs) => {
                    for o in outputs {
                        match o {
                            QsOutput::Broadcast(u) => {
                                ctx.send_all(self.peers(), ServiceMsg::Update(u));
                            }
                            QsOutput::Quorum(q) => {
                                self.history.push((ctx.now(), QuorumEvent::Plain(q)));
                            }
                        }
                    }
                }
                Work::Fs(outputs) => {
                    for o in outputs {
                        match o {
                            FsOutput::BroadcastUpdate(u) => {
                                ctx.send_all(self.peers(), ServiceMsg::Update(u));
                            }
                            FsOutput::BroadcastFollowers(f) => {
                                ctx.send_all(self.peers(), ServiceMsg::Followers(f));
                            }
                            FsOutput::Quorum(lq) => {
                                self.history.push((ctx.now(), QuorumEvent::Leader(lq)));
                            }
                            FsOutput::Cancel => {
                                queue.extend(self.fd.cancel_all(ctx.now()).map(Work::Suspected));
                            }
                            FsOutput::Expect { leader, epoch } => {
                                let key = ServiceExpect::Followers { epoch };
                                self.fd.arm(ctx.now(), leader, SimDuration::ZERO, key);
                            }
                            FsOutput::Detected(p) => {
                                queue.extend(self.fd.detected(ctx.now(), p).map(Work::Suspected));
                            }
                        }
                    }
                }
            }
        }
        self.rearm_fd_timer(ctx);
    }
}

impl Actor<ServiceMsg> for SelectorNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        self.heartbeat_tick(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ServiceMsg>, _link_sender: ProcessId, msg: ServiceMsg) {
        // The authenticated origin is the signer, not the link-level sender
        // (UPDATE and FOLLOWERS messages are forwarded by third parties).
        let Some(origin) = self.authenticate(&msg) else {
            return;
        };
        let suspected = self.fd.on_receive(ctx.now(), origin, &msg);
        let deliver = std::iter::once(Work::Deliver(msg));
        self.pump(ctx, deliver.chain(suspected.map(Work::Suspected)));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ServiceMsg>, timer: TimerId) {
        match timer {
            TIMER_HEARTBEAT => self.heartbeat_tick(ctx),
            TIMER_FD_POLL => {
                let suspected = self.fd.poll(ctx.now());
                self.pump(ctx, suspected.map(Work::Suspected));
            }
            #[expect(
                clippy::unreachable,
                reason = "timers are armed only by this node; an unknown id is a harness bug best surfaced loudly"
            )]
            other => unreachable!("unknown timer {other:?}"),
        }
    }

    /// The timers died with the crashed incarnation, and what the node
    /// expected before may have been delivered to the void: drop both,
    /// then restart the heartbeat and poll timers as [`Actor::on_start`]
    /// does.
    fn on_recover(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        self.polls.reset();
        let suspected = self.fd.cancel_all(ctx.now());
        self.pump(ctx, suspected.map(Work::Suspected));
        self.heartbeat_tick(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsel_simnet::{SimConfig, Simulation};
    use qsel_types::crypto::Keychain;

    fn cluster(
        n: u32,
        f: u32,
        seed: u64,
        follower: bool,
    ) -> Simulation<ServiceMsg, SelectorNode> {
        let cfg = ClusterConfig::new(n, f).unwrap();
        let chain = Keychain::new(&cfg, seed);
        let nodes: Vec<SelectorNode> = cfg
            .processes()
            .map(|p| {
                if follower {
                    SelectorNode::new_follower(cfg, p, &chain, NodeConfig::default())
                } else {
                    SelectorNode::new_quorum(cfg, p, &chain, NodeConfig::default())
                }
            })
            .collect();
        Simulation::new(SimConfig::new(n, seed), nodes)
    }

    #[test]
    fn healthy_cluster_stays_on_initial_quorum() {
        let mut sim = cluster(4, 1, 42, false);
        sim.run_until(SimTime::from_micros(100_000));
        for p in sim.ids().collect::<Vec<_>>() {
            let node = sim.actor(p);
            assert_eq!(
                node.current_plain_quorum().unwrap(),
                Quorum::initial(&ClusterConfig::new(4, 1).unwrap()),
                "no failures → no quorum changes at {p}"
            );
            assert!(node.quorum_history().is_empty());
        }
    }

    #[test]
    fn crashed_process_excluded_from_quorum() {
        let mut sim = cluster(4, 1, 7, false);
        sim.start();
        sim.crash(ProcessId(2));
        sim.run_until(SimTime::from_micros(200_000));
        for p in [1, 3, 4].map(ProcessId) {
            let q = sim.actor(p).current_plain_quorum().unwrap();
            assert!(!q.contains(ProcessId(2)), "at {p}: {q}");
        }
        // Agreement: all survivors output the same quorum.
        let q1 = sim.actor(ProcessId(1)).current_plain_quorum();
        assert_eq!(q1, sim.actor(ProcessId(3)).current_plain_quorum());
        assert_eq!(q1, sim.actor(ProcessId(4)).current_plain_quorum());
    }

    #[test]
    fn omission_link_fault_changes_quorum() {
        // p3 never receives p1's heartbeats: p3 suspects p1; the quorum
        // eventually avoids pairing p1 and p3 — and since suspicions are
        // recorded as an undirected edge, the lex-first independent set
        // keeps p1 out only if needed. Either way, agreement holds and the
        // quorum contains no suspicion edge.
        let mut sim = cluster(4, 1, 13, false);
        sim.start();
        sim.set_link(
            ProcessId(1),
            ProcessId(3),
            qsel_simnet::LinkState {
                drop_all: true,
                ..Default::default()
            },
        );
        sim.run_until(SimTime::from_micros(300_000));
        let quorums: Vec<Quorum> = [1, 2, 3, 4]
            .map(ProcessId)
            .iter()
            .map(|p| sim.actor(*p).current_plain_quorum().unwrap())
            .collect();
        for q in &quorums {
            assert_eq!(*q, quorums[0], "agreement");
            assert!(
                !(q.contains(ProcessId(1)) && q.contains(ProcessId(3))),
                "suspicion edge inside quorum: {q}"
            );
        }
    }

    #[test]
    fn follower_mode_crash_of_leader_elects_new_leader() {
        let mut sim = cluster(4, 1, 21, true);
        sim.start();
        sim.crash(ProcessId(1));
        sim.run_until(SimTime::from_micros(400_000));
        for p in [2, 3, 4].map(ProcessId) {
            let lq = sim.actor(p).current_leader_quorum().unwrap();
            assert_ne!(lq.leader(), ProcessId(1), "at {p}");
            assert!(!lq.quorum().contains(ProcessId(1)), "at {p}: {lq}");
        }
        let l2 = sim.actor(ProcessId(2)).current_leader_quorum().unwrap();
        let l3 = sim.actor(ProcessId(3)).current_leader_quorum().unwrap();
        let l4 = sim.actor(ProcessId(4)).current_leader_quorum().unwrap();
        assert_eq!(l2, l3);
        assert_eq!(l3, l4);
    }

    #[test]
    fn restarted_node_heartbeats_and_detects_again() {
        let mut sim = cluster(4, 1, 5, false);
        let (p2, p3) = (ProcessId(2), ProcessId(3));
        sim.run_until(SimTime::from_micros(20_000));
        sim.crash(p2);
        sim.run_until(SimTime::from_micros(60_000));
        assert!(sim.actor(ProcessId(1)).suspected().contains(p2));
        sim.restart(p2);
        sim.run_until(SimTime::from_micros(120_000));
        // Its heartbeats flow again, so the late ones clear the suspicion…
        for p in [1, 3, 4].map(ProcessId) {
            assert!(!sim.actor(p).suspected().contains(p2), "at {p}");
        }
        // …and its detector is polled again.
        sim.crash(p3);
        sim.run_until(SimTime::from_micros(180_000));
        assert!(sim.actor(p2).suspected().contains(p3));
    }

    /// Pins the order in which a node's modules see their events (the
    /// `pump` queue): a digest of every node's quorum history, detector
    /// and selection statistics, and the network counters, for Algorithm 1
    /// and Algorithm 2 through one crash and one dropped link. Recorded
    /// when the detector still handed every delivery back to the node.
    #[test]
    fn event_order_is_pinned() {
        for (follower, want) in [(false, "4cdc71bf"), (true, "67aa67ba")] {
            let mut sim = cluster(7, 2, 17, follower);
            sim.set_classifier(|m| m.kind());
            sim.run_until(SimTime::from_micros(20_000));
            sim.crash(ProcessId(1));
            let dropped = qsel_simnet::LinkState {
                drop_all: true,
                ..Default::default()
            };
            sim.set_link(ProcessId(3), ProcessId(5), dropped);
            sim.run_until(SimTime::from_micros(300_000));
            let mut record = format!("{:?}\n", sim.stats());
            for p in sim.ids().skip(1) {
                let node = sim.actor(p);
                assert!(!node.quorum_history().is_empty(), "{p}");
                assert!(!node.fd_stats().expiry_log.is_empty(), "{p}");
                record += &format!(
                    "{p}: {:?} {:?} {:?}\n",
                    node.quorum_history(),
                    node.fd_stats(),
                    node.selection_stats()
                );
            }
            let got = qsel_types::crypto::sha256(record.as_bytes()).short();
            assert_eq!(got, want, "follower selection: {follower}");
        }
    }

    #[test]
    fn heartbeats_flow() {
        let mut sim = cluster(3, 1, 99, false);
        sim.set_classifier(|m| m.kind());
        sim.run_until(SimTime::from_micros(50_000));
        let stats = sim.stats();
        assert!(stats.by_kind["heartbeat"] > 0);
        // No failures: no update traffic beyond possibly nothing.
        assert!(stats.by_kind.get("followers").is_none());
    }
}

#[cfg(test)]
mod expect_oracle {
    use super::*;
    use crate::messages::{FollowersPayload, UpdateRow};
    use qsel_detector::Pred;
    use qsel_types::crypto::Keychain;

    /// The closure each key replaced, with its label: the oracle.
    fn oracle(key: ServiceExpect) -> Pred<ServiceMsg> {
        match key {
            ServiceExpect::Heartbeat => {
                Pred::new("heartbeat", |m| matches!(m, ServiceMsg::Heartbeat(_)))
            }
            ServiceExpect::Followers { epoch } => Pred::new("followers", move |m| {
                matches!(
                    m,
                    ServiceMsg::Followers(sf) if sf.payload.epoch == epoch
                )
            }),
        }
    }

    /// Every key, on epochs the messages carry and on one they do not, is
    /// met by exactly the messages its closure accepted, under the same
    /// label.
    #[test]
    fn keys_mean_what_the_closures_meant() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let chain = Keychain::new(&cfg, 5);
        let signer = chain.signer(ProcessId(1));
        let mut msgs = Vec::new();
        for e in [2, 3] {
            msgs.push(ServiceMsg::Update(signer.sign(UpdateRow {
                row: vec![Epoch(e); 4],
            })));
            msgs.push(ServiceMsg::Followers(signer.sign(FollowersPayload {
                followers: vec![ProcessId(2), ProcessId(3)],
                line_edges: vec![(ProcessId(1), ProcessId(2))],
                epoch: Epoch(e),
            })));
            msgs.push(ServiceMsg::Heartbeat(signer.sign(Heartbeat { seq: e })));
        }
        let carried = [2, 3].map(|e| (ServiceExpect::Followers { epoch: Epoch(e) }, true));
        let absent = (ServiceExpect::Followers { epoch: Epoch(4) }, false);
        for (key, carried) in [(ServiceExpect::Heartbeat, true), absent]
            .into_iter()
            .chain(carried)
        {
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
