//! Algorithm 2: Follower Selection (Section VIII of the paper).
//!
//! Follower Selection is the leader-centric variant of Quorum Selection for
//! applications where followers never talk to each other directly. It
//! weakens **no suspicion** to **no leader suspicion** (suspicions between
//! followers are tolerated) and in exchange needs only `O(f)` quorum
//! changes per epoch (Theorem 9: at most `3f + 1`) and `6f + 2` in total
//! after stabilization (Corollary 10), escaping the `Ω(f²)` lower bound of
//! Theorem 4.
//!
//! Requires `|Π| > 3f` and FIFO links between correct processes.
//!
//! Suspicions are propagated exactly as in Algorithm 1 (the `suspected`
//! matrix with max-merge). The differences:
//!
//! * On an epoch change the *default* leader `p_1` and quorum
//!   `{p_1, …, p_q}` are installed immediately (lines 12–14).
//! * The leader is the designated leader of a **maximal line subgraph**
//!   of the suspect graph (Definition 1).
//! * The leader picks `q − 1` **possible followers** (Definition 2) and
//!   broadcasts a signed `FOLLOWERS` message; receivers validate it
//!   (Definition 3) and detect malformed messages or equivocation.

use qsel_graph::{LinearForest, SuspectGraph};
use qsel_obs::{TraceEvent, TraceSink};
use qsel_types::crypto::{Signer, Verifier};
use qsel_types::{thresholds, ClusterConfig, Epoch, LeaderQuorum, ProcessId, ProcessSet};

use crate::matrix::SuspectMatrix;
use crate::messages::{FollowersPayload, SignedFollowers, SignedUpdate};
use crate::propagation::Propagation;
use crate::stats::SelectionStats;

/// Output events of [`FollowerSelection`].
#[derive(Clone, Debug)]
pub enum FsOutput {
    /// Broadcast this signed UPDATE to all other processes (own rows and
    /// forwarded foreign rows).
    BroadcastUpdate(SignedUpdate),
    /// Broadcast this signed FOLLOWERS message to all other processes
    /// (fresh from the leader, or forwarded once on acceptance).
    BroadcastFollowers(SignedFollowers),
    /// `⟨QUORUM, l, Q⟩` — a new leader quorum is issued.
    Quorum(LeaderQuorum),
    /// `⟨CANCEL⟩` — tell the failure detector to cancel expectations
    /// (issued on epoch or leader change, lines 11 and 21).
    Cancel,
    /// `⟨EXPECT, P_{Fw,epoch}, leader⟩` — tell the failure detector to
    /// expect a signed FOLLOWERS message for `epoch` from `leader`
    /// (line 23).
    Expect {
        /// The leader the message is expected from.
        leader: ProcessId,
        /// The epoch the message must carry.
        epoch: Epoch,
    },
    /// `⟨DETECTED, p⟩` — proof of misbehaviour (malformed FOLLOWERS or
    /// equivocation, lines 30 and 32); forward to the failure detector.
    Detected(ProcessId),
}

/// The follower-selection module of one process (Algorithm 2).
///
/// # Example
///
/// ```
/// use qsel::{FollowerSelection, FsOutput};
/// use qsel_types::crypto::Keychain;
/// use qsel_types::{ClusterConfig, ProcessId, ProcessSet};
///
/// let cfg = ClusterConfig::new(4, 1).unwrap(); // n = 4 > 3f
/// let chain = Keychain::new(&cfg, 1);
/// let mut fs = FollowerSelection::new(
///     cfg,
///     ProcessId(2),
///     chain.signer(ProcessId(2)),
///     chain.verifier(),
/// );
/// // p2's failure detector suspects the leader p1:
/// let mut s = ProcessSet::new();
/// s.insert(ProcessId(1));
/// let out = fs.on_suspected(s);
/// // The maximal line subgraph covers p1 and p2 (the suspicion edge), so
/// // the new leader is p3; p2 now expects a FOLLOWERS message from it.
/// assert_eq!(fs.leader(), ProcessId(3));
/// assert!(out.iter().any(|o| matches!(
///     o,
///     FsOutput::Expect { leader, .. } if *leader == ProcessId(3)
/// )));
/// ```
#[derive(Debug)]
pub struct FollowerSelection {
    base: Propagation,
    leader: ProcessId,
    stable: bool,
    q_last: ProcessSet,
}

impl FollowerSelection {
    /// Creates the module with the initial state of Algorithm 2:
    /// `leader = p_1`, `stable = true`, default quorum.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ f` and `n > 3f` (the Section VIII assumption) and
    /// the signer belongs to `me`.
    pub fn new(cfg: ClusterConfig, me: ProcessId, signer: Signer, verifier: Verifier) -> Self {
        assert!(
            thresholds::tolerates_faults(cfg.f()),
            "follower selection requires f >= 1"
        );
        assert!(
            cfg.supports_follower_selection(),
            "follower selection requires n > 3f (got n = {}, f = {})",
            cfg.n(),
            cfg.f()
        );
        FollowerSelection {
            base: Propagation::new(cfg, me, signer, verifier),
            leader: ProcessId(1),
            stable: true,
            q_last: cfg.default_quorum_members().into_iter().collect(),
        }
    }

    /// Installs a trace sink (typically a clone of the simulation's, so
    /// events carry the ambient simulated time).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.base.trace = sink;
    }

    /// `⟨SUSPECTED, S⟩` from the failure detector.
    pub fn on_suspected(&mut self, s: ProcessSet) -> Vec<FsOutput> {
        let mut out = Vec::new();
        out.push(FsOutput::BroadcastUpdate(self.base.stamp_and_sign_row(s)));
        self.update_quorum(&mut out);
        out
    }

    /// `⟨UPDATE, susted⟩_σl` received from the network (propagation shared
    /// with Algorithm 1).
    pub fn on_update(&mut self, update: SignedUpdate) -> Vec<FsOutput> {
        let mut out = Vec::new();
        if self.base.merge_update(&update) {
            // Forward *before* any FOLLOWERS broadcast so FIFO receivers
            // see the graph change first (needed for Lemma 7 / Def. 3 b).
            out.push(FsOutput::BroadcastUpdate(update));
            self.update_quorum(&mut out);
        }
        out
    }

    /// `⟨FOLLOWERS, Fw, Ls, e⟩_σj` received from the network (Algorithm 2
    /// lines 27–37).
    pub fn on_followers(&mut self, msg: SignedFollowers) -> Vec<FsOutput> {
        let mut out = Vec::new();
        if self.base.verifier.verify(&msg).is_err() {
            self.base.stats.invalid_followers += 1;
            return out;
        }
        let sender = msg.signer;
        if sender != self.leader || msg.payload.epoch != self.base.epoch {
            return out; // stale or not from the current leader (line 28)
        }
        if !self.is_well_formed(&msg.payload, sender) {
            self.detect(sender, &mut out);
            return out;
        }
        let quorum: ProcessSet = msg
            .payload
            .followers
            .iter()
            .copied()
            .chain(std::iter::once(self.leader))
            .collect();
        if self.stable {
            if quorum != self.q_last {
                // Two different FOLLOWERS for the same leader and epoch:
                // equivocation (line 32).
                self.detect(sender, &mut out);
            }
            return out;
        }
        // First acceptable FOLLOWERS in this (leader, epoch): adopt it
        // (lines 33–37).
        self.stable = true;
        self.q_last = quorum;
        out.push(FsOutput::BroadcastFollowers(msg));
        self.issue_quorum(&mut out);
        out
    }

    /// `⟨DETECTED, sender⟩`: a malformed or equivocating FOLLOWERS message
    /// is proof of misbehaviour (lines 30 and 32).
    fn detect(&mut self, sender: ProcessId, out: &mut Vec<FsOutput>) {
        self.base.stats.detections_raised += 1;
        self.base.trace.emit(|| TraceEvent::DetectionRaised {
            p: self.base.me.0,
            against: sender.0,
        });
        out.push(FsOutput::Detected(sender));
    }

    /// `updateQuorum()` (Algorithm 2 lines 7–26), looping where the paper
    /// re-enters through the self-addressed UPDATE.
    fn update_quorum(&mut self, out: &mut Vec<FsOutput>) {
        loop {
            let g = self.base.matrix.build_graph(self.base.epoch);
            if !g.has_independent_set(self.base.cfg.quorum_size()) {
                // Lines 9–16: next epoch, default leader and quorum.
                self.base.enter_next_epoch("fs");
                out.push(FsOutput::Cancel);
                self.leader = ProcessId(1);
                self.stable = true;
                self.q_last = self.base.cfg.default_quorum_members().into_iter().collect();
                self.issue_quorum(out);
                let suspecting = self.base.suspecting;
                out.push(FsOutput::BroadcastUpdate(
                    self.base.stamp_and_sign_row(suspecting),
                ));
                continue;
            }
            let m = g.maximal_line_subgraph();
            let Some(new_leader) = m.leader else {
                // Cannot happen while an independent set of size q exists
                // (Lemma 8 b); treat defensively as an inconsistent epoch.
                debug_assert!(false, "line subgraph covered all nodes despite IS");
                self.base.enter_next_epoch("fs");
                continue;
            };
            if self.leader != new_leader {
                self.stable = false;
                self.leader = new_leader;
                out.push(FsOutput::Cancel);
                if new_leader != self.base.me {
                    out.push(FsOutput::Expect {
                        leader: new_leader,
                        epoch: self.base.epoch,
                    });
                } else {
                    let fw = select_followers(&m.forest, new_leader, self.base.cfg.quorum_size());
                    let payload = FollowersPayload {
                        followers: fw,
                        line_edges: m.forest.edges(),
                        epoch: self.base.epoch,
                    };
                    let signed = self.base.signer.sign(payload);
                    out.push(FsOutput::BroadcastFollowers(signed.clone()));
                    // The paper broadcasts "including self": the leader
                    // accepts its own message immediately.
                    self.stable = true;
                    self.q_last = signed
                        .payload
                        .followers
                        .iter()
                        .copied()
                        .chain(std::iter::once(self.base.me))
                        .collect();
                    self.issue_quorum(out);
                }
            }
            return;
        }
    }

    /// Definition 3 well-formedness, checked against the local suspect
    /// graph `G_i`.
    fn is_well_formed(&self, p: &FollowersPayload, sender: ProcessId) -> bool {
        let q = self.base.cfg.quorum_size();
        // a) leader not among followers, exactly q − 1 distinct followers.
        let fw: ProcessSet = p.followers.iter().copied().collect();
        if fw.contains(sender)
            || fw.len() != (q - 1) as usize
            || p.followers.len() != fw.len()
            || !p.followers.iter().all(|f| self.base.cfg.contains(*f))
        {
            return false;
        }
        // b) L' is a line subgraph and L' ⊆ G_i.
        let Ok(forest) = LinearForest::from_edge_list(self.base.cfg.n(), &p.line_edges) else {
            return false;
        };
        let g = self.base.matrix.build_graph(self.base.epoch);
        if !forest.is_subgraph_of(&g) {
            return false;
        }
        // c) the sender is the designated leader of L'.
        if forest.leader() != Some(sender) {
            return false;
        }
        // d) every follower is a possible follower for L'.
        let possible = forest.possible_followers();
        p.followers.iter().all(|f| possible.contains(*f))
    }

    fn issue_quorum(&mut self, out: &mut Vec<FsOutput>) {
        let quorum = LeaderQuorum::of(&self.base.cfg, self.leader, self.q_last.iter())
            // lint: allow(S2, q_last is maintained at size n-t by construction; a malformed quorum here is unrecoverable state corruption)
            .expect("internal quorum invariants violated");
        self.base.record_quorum("fs", *quorum.quorum().members());
        out.push(FsOutput::Quorum(quorum));
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.base.epoch
    }

    /// The current leader.
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// Whether the module has accepted a FOLLOWERS message for the current
    /// leader (Algorithm 2's `stable` flag).
    pub fn is_stable(&self) -> bool {
        self.stable
    }

    /// The last installed quorum members (leader included).
    pub fn current_members(&self) -> ProcessSet {
        self.q_last
    }

    /// A copy of the suspect graph at the current epoch.
    pub fn suspect_graph(&self) -> SuspectGraph {
        self.base.matrix.build_graph(self.base.epoch)
    }

    /// Read access to the suspicion matrix.
    pub fn matrix(&self) -> &SuspectMatrix {
        &self.base.matrix
    }

    /// The owning process.
    pub fn me(&self) -> ProcessId {
        self.base.me
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.base.cfg
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &SelectionStats {
        &self.base.stats
    }
}

/// `selectFollowers(L)` (Algorithm 2 line 25): the `q − 1`
/// lexicographically smallest possible followers, excluding the leader.
///
/// Whenever the suspect graph admits an independent set of size `q` and
/// `n > 3f`, at least `q − 1` possible followers exist: the only impossible
/// followers are middle nodes of 3-node paths, there are at most `f` of
/// those (each 3-path forces a vertex-cover member), and
/// `n − 1 − f = q − 1`.
fn select_followers(forest: &LinearForest, leader: ProcessId, q: u32) -> Vec<ProcessId> {
    let possible = forest.possible_followers();
    let fw: Vec<ProcessId> = possible
        .iter()
        .filter(|p| *p != leader)
        .take((q - 1) as usize)
        .collect();
    assert_eq!(
        fw.len(),
        (q - 1) as usize,
        "fewer than q-1 possible followers; violates the n > 3f invariant"
    );
    fw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::UpdateRow;
    use qsel_types::crypto::Keychain;

    fn setup(n: u32, f: u32) -> (ClusterConfig, Keychain, Vec<FollowerSelection>) {
        let cfg = ClusterConfig::new(n, f).unwrap();
        let chain = Keychain::new(&cfg, 11);
        let modules = cfg
            .processes()
            .map(|p| FollowerSelection::new(cfg, p, chain.signer(p), chain.verifier()))
            .collect();
        (cfg, chain, modules)
    }

    fn set(ids: &[u32]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    fn quorums(out: &[FsOutput]) -> Vec<LeaderQuorum> {
        out.iter()
            .filter_map(|o| match o {
                FsOutput::Quorum(q) => Some(*q),
                _ => None,
            })
            .collect()
    }

    /// Instant reliable propagation of UPDATE and FOLLOWERS broadcasts.
    fn propagate(modules: &mut [FollowerSelection], initial: Vec<FsOutput>) {
        enum Wire {
            U(SignedUpdate, ProcessId),
            F(SignedFollowers, ProcessId),
        }
        let mut queue: Vec<Wire> = Vec::new();
        let seed = |out: &[FsOutput], from: ProcessId, queue: &mut Vec<Wire>| {
            for o in out {
                match o {
                    FsOutput::BroadcastUpdate(u) => queue.push(Wire::U(u.clone(), from)),
                    FsOutput::BroadcastFollowers(f) => queue.push(Wire::F(f.clone(), from)),
                    _ => {}
                }
            }
        };
        // We don't know which module produced `initial`; broadcasts are
        // self-describing (signed), so origin only matters for skipping
        // self-delivery, which is safe either way.
        seed(&initial, ProcessId(u32::MAX), &mut queue);
        while let Some(w) = queue.pop() {
            for m in modules.iter_mut() {
                let out = match &w {
                    Wire::U(u, from) if *from != m.me() => m.on_update(u.clone()),
                    Wire::F(f, from) if *from != m.me() => m.on_followers(f.clone()),
                    _ => Vec::new(),
                };
                let me = m.me();
                seed(&out, me, &mut queue);
            }
        }
    }

    #[test]
    fn initial_state() {
        let (_, _, modules) = setup(4, 1);
        let m = &modules[0];
        assert_eq!(m.leader(), ProcessId(1));
        assert!(m.is_stable());
        assert_eq!(m.current_members(), set(&[1, 2, 3]));
    }

    #[test]
    fn leader_suspicion_moves_leader() {
        // p2 suspects p1. Maximal line subgraph covers p1 (edge 1-2), so
        // the new leader is p2... wait: covering p1 uses edge (1,2), which
        // also covers p2; leader = p3. Check the actual semantics:
        let (_, _, mut modules) = setup(4, 1);
        let out = modules[1].on_suspected(set(&[1]));
        // The maximal line subgraph of {1-2} covers p1 and p2 → leader p3.
        assert_eq!(modules[1].leader(), ProcessId(3));
        // p2 is not the leader, so it must expect FOLLOWERS from p3.
        assert!(out.iter().any(|o| matches!(
            o,
            FsOutput::Expect { leader, .. } if *leader == ProcessId(3)
        )));
        assert!(out.iter().any(|o| matches!(o, FsOutput::Cancel)));
    }

    #[test]
    fn new_leader_broadcasts_followers_and_installs() {
        // At p3's module, the same suspicion makes p3 itself leader: it
        // must broadcast FOLLOWERS and immediately install the quorum.
        let (_, _, mut modules) = setup(4, 1);
        let out = modules[2].on_update(
            // p2's row claiming suspicion of p1 in epoch 1:
            Keychain::new(&ClusterConfig::new(4, 1).unwrap(), 11)
                .signer(ProcessId(2))
                .sign(UpdateRow {
                    row: vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)],
                }),
        );
        assert_eq!(modules[2].leader(), ProcessId(3));
        assert!(modules[2].is_stable());
        let qs = quorums(&out);
        assert_eq!(qs.len(), 1);
        assert_eq!(qs[0].leader(), ProcessId(3));
        assert!(out
            .iter()
            .any(|o| matches!(o, FsOutput::BroadcastFollowers(_))));
    }

    #[test]
    fn agreement_after_propagation() {
        let (_, _, mut modules) = setup(7, 2);
        let out = modules[3].on_suspected(set(&[1, 2]));
        propagate(&mut modules, out);
        let leader = modules[0].leader();
        let members = modules[0].current_members();
        for m in &modules {
            assert_eq!(m.leader(), leader, "at {}", m.me());
            assert_eq!(m.current_members(), members, "at {}", m.me());
            assert!(m.is_stable(), "at {}", m.me());
        }
        // Suspicions 4-1 and 4-2: line subgraph can cover 1,2,4 (path
        // 1-4-2); wait p4 has degree 2 then; covers {1,2,4}; p3 uncovered →
        // leader p3.
        assert_eq!(leader, ProcessId(3));
        assert_eq!(members.len(), 5);
        assert!(members.contains(ProcessId(3)));
    }

    #[test]
    fn malformed_followers_detected_bad_count() {
        let (cfg, chain, mut modules) = setup(4, 1);
        // Make p3 the accepted leader at p1 first.
        let upd = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)],
        });
        modules[0].on_update(upd);
        assert_eq!(modules[0].leader(), ProcessId(3));
        // p3 sends FOLLOWERS with too few followers.
        let bad = chain.signer(ProcessId(3)).sign(FollowersPayload {
            followers: vec![ProcessId(4)],
            line_edges: vec![(ProcessId(1), ProcessId(2))],
            epoch: Epoch(1),
        });
        let out = modules[0].on_followers(bad);
        assert!(matches!(&out[..], [FsOutput::Detected(p)] if *p == ProcessId(3)));
        let _ = cfg;
    }

    #[test]
    fn malformed_followers_detected_line_not_subgraph() {
        let (_, chain, mut modules) = setup(4, 1);
        let upd = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)],
        });
        modules[0].on_update(upd);
        // L' contains an edge 2-4 that is not in G_1's suspect graph.
        let bad = chain.signer(ProcessId(3)).sign(FollowersPayload {
            followers: vec![ProcessId(2), ProcessId(4)],
            line_edges: vec![(ProcessId(1), ProcessId(2)), (ProcessId(2), ProcessId(4))],
            epoch: Epoch(1),
        });
        let out = modules[0].on_followers(bad);
        assert!(matches!(&out[..], [FsOutput::Detected(p)] if *p == ProcessId(3)));
    }

    #[test]
    fn malformed_followers_detected_wrong_leader() {
        let (_, chain, mut modules) = setup(4, 1);
        let upd = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)],
        });
        modules[0].on_update(upd);
        // L' = {} designates p1 as leader, but the sender is p3.
        let bad = chain.signer(ProcessId(3)).sign(FollowersPayload {
            followers: vec![ProcessId(2), ProcessId(4)],
            line_edges: vec![],
            epoch: Epoch(1),
        });
        let out = modules[0].on_followers(bad);
        assert!(matches!(&out[..], [FsOutput::Detected(p)] if *p == ProcessId(3)));
    }

    #[test]
    fn equivocating_followers_detected() {
        let (_, chain, mut modules) = setup(4, 1);
        let upd = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)],
        });
        modules[0].on_update(upd);
        let line = vec![(ProcessId(1), ProcessId(2))];
        let first = chain.signer(ProcessId(3)).sign(FollowersPayload {
            followers: vec![ProcessId(1), ProcessId(2)],
            line_edges: line.clone(),
            epoch: Epoch(1),
        });
        let out = modules[0].on_followers(first);
        assert_eq!(quorums(&out).len(), 1);
        // Same leader, same epoch, *different* followers: equivocation.
        let second = chain.signer(ProcessId(3)).sign(FollowersPayload {
            followers: vec![ProcessId(1), ProcessId(4)],
            line_edges: line,
            epoch: Epoch(1),
        });
        let out = modules[0].on_followers(second);
        assert!(matches!(&out[..], [FsOutput::Detected(p)] if *p == ProcessId(3)));
    }

    #[test]
    fn duplicate_followers_accepted_silently() {
        let (_, chain, mut modules) = setup(4, 1);
        let upd = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)],
        });
        modules[0].on_update(upd);
        let msg = chain.signer(ProcessId(3)).sign(FollowersPayload {
            followers: vec![ProcessId(1), ProcessId(2)],
            line_edges: vec![(ProcessId(1), ProcessId(2))],
            epoch: Epoch(1),
        });
        modules[0].on_followers(msg.clone());
        let out = modules[0].on_followers(msg);
        assert!(out.is_empty(), "identical re-delivery must be a no-op");
    }

    #[test]
    fn stale_epoch_followers_ignored() {
        let (_, chain, mut modules) = setup(4, 1);
        let msg = chain.signer(ProcessId(1)).sign(FollowersPayload {
            followers: vec![ProcessId(2), ProcessId(3)],
            line_edges: vec![],
            epoch: Epoch(9),
        });
        let out = modules[1].on_followers(msg);
        assert!(out.is_empty());
    }

    #[test]
    fn epoch_change_installs_default_quorum() {
        // Dense suspicions force an epoch change; the module must fall back
        // to leader p1 with the default quorum (lines 12–14).
        let (_, chain, mut modules) = setup(4, 1);
        let mut out_all = modules[0].on_suspected(set(&[2, 3]));
        for (s, row) in [
            (2u32, vec![Epoch(0), Epoch(0), Epoch(1), Epoch(0)]),
            (3u32, vec![Epoch(0), Epoch(0), Epoch(0), Epoch(1)]),
            (4u32, vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)]),
        ] {
            let u = chain.signer(ProcessId(s)).sign(UpdateRow { row });
            out_all.extend(modules[0].on_update(u));
        }
        assert!(modules[0].epoch() > Epoch(1));
        let issued = quorums(&out_all);
        assert!(issued
            .iter()
            .any(|q| q.leader() == ProcessId(1) && q.quorum().contains(ProcessId(1))));
    }

    #[test]
    fn select_followers_prefers_low_ids() {
        let mut l = LinearForest::new(6);
        l.add_edge(ProcessId(1), ProcessId(2)).unwrap();
        // Leader is p3; q−1 = 4 followers from {1,2,4,5,6}.
        let fw = select_followers(&l, ProcessId(3), 5);
        assert_eq!(
            fw,
            vec![ProcessId(1), ProcessId(2), ProcessId(4), ProcessId(5)]
        );
    }

    #[test]
    #[should_panic(expected = "requires n > 3f")]
    fn small_cluster_rejected() {
        let cfg = ClusterConfig::new(6, 2).unwrap();
        let chain = Keychain::new(&cfg, 1);
        let _ = FollowerSelection::new(cfg, ProcessId(1), chain.signer(ProcessId(1)), chain.verifier());
    }

    #[test]
    fn forged_followers_rejected() {
        let (cfg, _, mut modules) = setup(4, 1);
        let other = Keychain::new(&cfg, 999);
        let forged = other.signer(ProcessId(1)).sign(FollowersPayload {
            followers: vec![ProcessId(2), ProcessId(3)],
            line_edges: vec![],
            epoch: Epoch(1),
        });
        let out = modules[1].on_followers(forged);
        assert!(out.is_empty());
        assert_eq!(modules[1].stats().invalid_followers, 1);
    }
}
