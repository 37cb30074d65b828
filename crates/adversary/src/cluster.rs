//! In-memory clusters of real selection modules with instant propagation.
//!
//! These harnesses run one *real* [`QuorumSelection`] / [`FollowerSelection`]
//! instance per process and deliver every broadcast to every process
//! immediately and reliably — the "favorable system conditions" under which
//! the paper states its interruption bounds. The adversary drives the
//! cluster by puppeteering the faulty processes: feeding fabricated
//! `⟨SUSPECTED⟩` events into their modules (a faulty process may claim any
//! suspicion) and triggering genuine suspicions at correct processes (a
//! faulty process can always make a correct one suspect it, e.g. by
//! omitting an expected message).

use qsel::{FollowerSelection, FsOutput, QsOutput, QuorumSelection};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, Epoch, LeaderQuorum, ProcessId, ProcessSet, Quorum};

use crate::game::QuorumAlgorithm;

/// A cluster of Algorithm 1 modules with instant reliable propagation.
///
/// # Example
///
/// ```
/// use qsel_adversary::cluster::QsCluster;
/// use qsel_types::{ClusterConfig, ProcessId};
///
/// let cfg = ClusterConfig::new(4, 1).unwrap();
/// let mut cluster = QsCluster::new(cfg, 1);
/// // p2 (faulty) forces p1 to suspect it by omitting a message:
/// cluster.cause_suspicion(ProcessId(1), ProcessId(2));
/// let agreed = cluster.agreed_quorum().unwrap();
/// assert!(!agreed.contains(ProcessId(2)));
/// ```
pub struct QsCluster {
    cfg: ClusterConfig,
    modules: Vec<QuorumSelection>,
    issued: Vec<Vec<Quorum>>,
}

impl QsCluster {
    /// Creates a cluster of `n` Algorithm 1 modules sharing a keychain.
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        let chain = Keychain::new(&cfg, seed);
        let modules = cfg
            .processes()
            .map(|p| QuorumSelection::new(cfg, p, chain.signer(p), chain.verifier()))
            .collect();
        QsCluster {
            cfg,
            modules,
            issued: vec![Vec::new(); cfg.n() as usize],
        }
    }

    /// Makes `suspecter`'s failure detector momentarily suspect `target`
    /// (raise then cancel — the one-shot suspicion of the Theorem 4 game),
    /// then propagates to quiescence.
    pub fn cause_suspicion(&mut self, suspecter: ProcessId, target: ProcessId) {
        let mut set = ProcessSet::new();
        set.insert(target);
        let out = self.modules[suspecter.index()].on_suspected(set);
        self.record(suspecter, &out);
        let mut pending = Self::updates_of(suspecter, &out);
        // Cancel: the suspicion is one-shot (its stamp persists).
        let out = self.modules[suspecter.index()].on_suspected(ProcessSet::new());
        self.record(suspecter, &out);
        pending.extend(Self::updates_of(suspecter, &out));
        self.propagate(pending);
    }

    fn updates_of(
        from: ProcessId,
        out: &[QsOutput],
    ) -> Vec<(ProcessId, qsel::messages::SignedUpdate)> {
        out.iter()
            .filter_map(|o| match o {
                QsOutput::Broadcast(u) => Some((from, u.clone())),
                _ => None,
            })
            .collect()
    }

    fn record(&mut self, at: ProcessId, out: &[QsOutput]) {
        for o in out {
            if let QsOutput::Quorum(q) = o {
                self.issued[at.index()].push(*q);
            }
        }
    }

    fn propagate(&mut self, mut pending: Vec<(ProcessId, qsel::messages::SignedUpdate)>) {
        while let Some((from, u)) = pending.pop() {
            for p in self.cfg.processes() {
                if p == from {
                    continue;
                }
                let out = self.modules[p.index()].on_update(u.clone());
                self.record(p, &out);
                pending.extend(Self::updates_of(p, &out));
            }
        }
    }

    /// The quorum all processes agree on, or `None` if they differ (they
    /// never should after propagation).
    pub fn agreed_quorum(&self) -> Option<Quorum> {
        let first = self.modules[0].current_quorum();
        self.modules
            .iter()
            .all(|m| m.current_quorum() == first)
            .then_some(first)
    }

    /// The epoch all processes agree on, or `None`.
    pub fn agreed_epoch(&self) -> Option<Epoch> {
        let first = self.modules[0].epoch();
        self.modules
            .iter()
            .all(|m| m.epoch() == first)
            .then_some(first)
    }

    /// Quorums issued by process `p` so far.
    pub fn issued_by(&self, p: ProcessId) -> &[Quorum] {
        &self.issued[p.index()]
    }

    /// Direct access to a module (for stats).
    pub fn module(&self, p: ProcessId) -> &QuorumSelection {
        &self.modules[p.index()]
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }
}

/// Adapter: a [`QsCluster`] observed from `p_n`'s perspective plays the
/// abstract interruption game, so the *full protocol* (not just the
/// single-epoch graph rule) can face the optimal adversary.
pub struct ClusterUnderAttack {
    cluster: QsCluster,
    observer: ProcessId,
}

impl ClusterUnderAttack {
    /// Wraps a fresh cluster.
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        let observer = ProcessId(cfg.n());
        ClusterUnderAttack {
            cluster: QsCluster::new(cfg, seed),
            observer,
        }
    }

    /// Total quorums issued by the observer.
    pub fn observer_issued(&self) -> usize {
        self.cluster.issued_by(self.observer).len()
    }

    /// The observer's per-epoch maximum (Theorem 3's bounded quantity).
    pub fn observer_max_per_epoch(&self) -> u64 {
        self.cluster
            .module(self.observer)
            .stats()
            .max_quorums_in_one_epoch()
    }
}

impl QuorumAlgorithm for ClusterUnderAttack {
    fn quorum(&self) -> ProcessSet {
        *self
            .cluster
            .agreed_quorum()
            .expect("instant propagation keeps the cluster agreed")
            .members()
    }

    fn on_suspicion(&mut self, a: ProcessId, b: ProcessId) -> bool {
        let before = self.cluster.agreed_quorum();
        self.cluster.cause_suspicion(a, b);
        let after = self.cluster.agreed_quorum();
        before != after
    }

    fn fork(&self) -> Box<dyn QuorumAlgorithm> {
        unimplemented!("cluster games use the greedy adversary, which never forks")
    }
}

/// A cluster of Algorithm 2 modules with instant reliable propagation.
pub struct FsCluster {
    cfg: ClusterConfig,
    modules: Vec<FollowerSelection>,
    issued: Vec<Vec<LeaderQuorum>>,
}

enum FsWire {
    Update(ProcessId, qsel::messages::SignedUpdate),
    Followers(ProcessId, qsel::messages::SignedFollowers),
}

impl FsCluster {
    /// Creates a cluster of `n` Algorithm 2 modules (requires `n > 3f`).
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        let chain = Keychain::new(&cfg, seed);
        let modules = cfg
            .processes()
            .map(|p| FollowerSelection::new(cfg, p, chain.signer(p), chain.verifier()))
            .collect();
        FsCluster {
            cfg,
            modules,
            issued: vec![Vec::new(); cfg.n() as usize],
        }
    }

    /// One-shot suspicion of `target` at `suspecter`, propagated to
    /// quiescence (including any FOLLOWERS exchanges it triggers).
    pub fn cause_suspicion(&mut self, suspecter: ProcessId, target: ProcessId) {
        let mut set = ProcessSet::new();
        set.insert(target);
        let out = self.modules[suspecter.index()].on_suspected(set);
        let mut pending = self.collect(suspecter, out);
        let out = self.modules[suspecter.index()].on_suspected(ProcessSet::new());
        pending.extend(self.collect(suspecter, out));
        self.propagate(pending);
    }

    fn collect(&mut self, from: ProcessId, out: Vec<FsOutput>) -> Vec<FsWire> {
        let mut wires = Vec::new();
        for o in out {
            match o {
                FsOutput::BroadcastUpdate(u) => wires.push(FsWire::Update(from, u)),
                FsOutput::BroadcastFollowers(f) => wires.push(FsWire::Followers(from, f)),
                FsOutput::Quorum(lq) => self.issued[from.index()].push(lq),
                // Cancel/Expect/Detected are failure-detector directives;
                // the instant-propagation harness has no detector. A
                // correct leader always answers an Expect, which we emulate
                // by the leader module broadcasting FOLLOWERS itself when
                // it observes its own leadership (built into Algorithm 2).
                FsOutput::Cancel | FsOutput::Expect { .. } | FsOutput::Detected(_) => {}
            }
        }
        wires
    }

    fn propagate(&mut self, pending: Vec<FsWire>) {
        // FIFO to respect the Section VIII assumption.
        let mut queue: std::collections::VecDeque<FsWire> = pending.into();
        while let Some(wire) = queue.pop_front() {
            match wire {
                FsWire::Update(from, u) => {
                    for p in self.cfg.processes() {
                        if p == from {
                            continue;
                        }
                        let out = self.modules[p.index()].on_update(u.clone());
                        queue.extend(self.collect(p, out));
                    }
                }
                FsWire::Followers(from, f) => {
                    for p in self.cfg.processes() {
                        if p == from {
                            continue;
                        }
                        let out = self.modules[p.index()].on_followers(f.clone());
                        queue.extend(self.collect(p, out));
                    }
                }
            }
        }
    }

    /// The leader quorum all processes agree on, or `None`.
    pub fn agreed_quorum(&self) -> Option<LeaderQuorum> {
        let mk = |m: &FollowerSelection| {
            LeaderQuorum::of(&self.cfg, m.leader(), m.current_members().iter()).ok()
        };
        let first = mk(&self.modules[0])?;
        self.modules
            .iter()
            .all(|m| mk(m) == Some(first))
            .then_some(first)
    }

    /// The epoch all processes agree on, or `None`.
    pub fn agreed_epoch(&self) -> Option<Epoch> {
        let first = self.modules[0].epoch();
        self.modules
            .iter()
            .all(|m| m.epoch() == first)
            .then_some(first)
    }

    /// Leader quorums issued by `p` so far.
    pub fn issued_by(&self, p: ProcessId) -> &[LeaderQuorum] {
        &self.issued[p.index()]
    }

    /// Direct access to a module (for stats).
    pub fn module(&self, p: ProcessId) -> &FollowerSelection {
        &self.modules[p.index()]
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::greedy_adversary;

    #[test]
    fn qs_cluster_agreement_after_suspicion() {
        let cfg = ClusterConfig::new(5, 2).unwrap();
        let mut c = QsCluster::new(cfg, 3);
        c.cause_suspicion(ProcessId(2), ProcessId(1));
        let q = c.agreed_quorum().expect("agreement");
        assert!(!(q.contains(ProcessId(1)) && q.contains(ProcessId(2))));
        assert_eq!(c.agreed_epoch(), Some(Epoch(1)));
    }

    #[test]
    fn qs_cluster_all_issue_same_quorums() {
        let cfg = ClusterConfig::new(5, 2).unwrap();
        let mut c = QsCluster::new(cfg, 3);
        c.cause_suspicion(ProcessId(2), ProcessId(1));
        c.cause_suspicion(ProcessId(3), ProcessId(1));
        c.cause_suspicion(ProcessId(2), ProcessId(3));
        for p in cfg.processes() {
            assert_eq!(
                c.issued_by(p),
                c.issued_by(ProcessId(1)),
                "process {p} issued a different quorum sequence"
            );
        }
    }

    #[test]
    fn full_cluster_respects_theorem3_bound() {
        // The greedy adversary drives the *full protocol*; per-epoch issue
        // counts must respect f(f+1).
        for f in 1..=2u32 {
            let n = 3 * f + 1;
            let cfg = ClusterConfig::new(n, f).unwrap();
            let mut target = ClusterUnderAttack::new(cfg, 5);
            let _ = greedy_adversary(&mut target, n, f);
            assert!(
                target.observer_max_per_epoch() <= (f * (f + 1)) as u64,
                "f={f}"
            );
        }
    }

    #[test]
    fn fs_cluster_leader_attack() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let mut c = FsCluster::new(cfg, 9);
        // p2 suspects leader p1.
        c.cause_suspicion(ProcessId(2), ProcessId(1));
        let lq = c.agreed_quorum().expect("agreement");
        assert_eq!(lq.leader(), ProcessId(3));
        assert_eq!(c.agreed_epoch(), Some(Epoch(1)));
    }

    #[test]
    fn fs_cluster_sequential_leader_attacks_bounded() {
        // Keep attacking whoever is leader; Theorem 9: ≤ 3f+1 quorums per
        // epoch at each correct process.
        let f = 2u32;
        let n = 3 * f + 1;
        let cfg = ClusterConfig::new(n, f).unwrap();
        let mut c = FsCluster::new(cfg, 11);
        for _ in 0..20 {
            let Some(lq) = c.agreed_quorum() else { break };
            let leader = lq.leader();
            // A follower of the current quorum suspects the leader.
            let Some(suspecter) = lq.followers().iter().next() else {
                break;
            };
            c.cause_suspicion(suspecter, leader);
        }
        for p in cfg.processes() {
            let max = c.module(p).stats().max_quorums_in_one_epoch();
            assert!(max <= (3 * f + 1) as u64, "at {p}: {max} > 3f+1");
        }
    }
}
