//! Algorithm 1: handling suspicions and selecting quorums.
//!
//! This is the paper's quorum-selection module (Sections IV-A and VI) as a
//! sans-io state machine. Inputs are the `⟨SUSPECTED, S⟩` events of the
//! local failure detector and signed `UPDATE` messages from peers; outputs
//! are `UPDATE` broadcasts (own rows and forwarded foreign rows) and
//! `⟨QUORUM, Q⟩` events.
//!
//! The module guarantees (paper §IV-A, proven in §VII):
//!
//! * **Termination / O(f²) interruptions** — once the failure detector is
//!   accurate, correct processes issue at most `f(f+1)` quorums per epoch
//!   and enter at most one further epoch (Theorem 3).
//! * **No suspicion** — an issued quorum is an independent set of the
//!   current suspect graph, so no quorum member suspects another (in the
//!   epoch the quorum was computed for).
//! * **Agreement** — the `suspected` matrix is max-merge convergent and
//!   the quorum is the deterministic lexicographically-first independent
//!   set, so processes with equal matrices output equal quorums.

use qsel_graph::SuspectGraph;
use qsel_obs::TraceSink;
use qsel_types::crypto::{Signer, Verifier};
use qsel_types::{thresholds, ClusterConfig, Epoch, ProcessId, ProcessSet, Quorum};

use crate::matrix::SuspectMatrix;
use crate::messages::SignedUpdate;
use crate::propagation::Propagation;
use crate::stats::SelectionStats;

/// Output events of [`QuorumSelection`].
#[derive(Clone, Debug)]
pub enum QsOutput {
    /// Broadcast this signed UPDATE to all *other* processes (the paper
    /// broadcasts "to all including self"; local handling is internal).
    /// Covers both own rows (Algorithm 1 line 15) and forwarded foreign
    /// rows (line 23).
    Broadcast(SignedUpdate),
    /// `⟨QUORUM, Q⟩` — a new quorum is issued (line 33).
    Quorum(Quorum),
}

/// The quorum-selection module of one process (Algorithm 1).
///
/// # Example
///
/// ```
/// use qsel::{QsOutput, QuorumSelection};
/// use qsel_types::crypto::Keychain;
/// use qsel_types::{ClusterConfig, ProcessId, ProcessSet};
///
/// let cfg = ClusterConfig::new(4, 1).unwrap();
/// let chain = Keychain::new(&cfg, 1);
/// let mut qs = QuorumSelection::new(
///     cfg,
///     ProcessId(1),
///     chain.signer(ProcessId(1)),
///     chain.verifier(),
/// );
/// // p1's failure detector suspects p2:
/// let mut suspected = ProcessSet::new();
/// suspected.insert(ProcessId(2));
/// let out = qs.on_suspected(suspected);
/// // An UPDATE is broadcast and a new quorum excluding p2 is issued.
/// assert!(out.iter().any(|o| matches!(o, QsOutput::Broadcast(_))));
/// assert!(out.iter().any(|o| match o {
///     QsOutput::Quorum(q) => !q.contains(ProcessId(2)),
///     _ => false,
/// }));
/// ```
#[derive(Debug)]
pub struct QuorumSelection {
    base: Propagation,
    q_last: Quorum,
}

impl QuorumSelection {
    /// Creates the module with the paper's initial state: `epoch = 1`,
    /// empty suspicions, all-zero matrix, `Qlast = {p_1, …, p_q}`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.f() == 0` (with no faults to exclude, any suspicion
    /// would make a size-`n` independent set impossible forever) or if
    /// `signer` does not belong to `me`.
    pub fn new(cfg: ClusterConfig, me: ProcessId, signer: Signer, verifier: Verifier) -> Self {
        assert!(
            thresholds::tolerates_faults(cfg.f()),
            "quorum selection requires f >= 1"
        );
        QuorumSelection {
            base: Propagation::new(cfg, me, signer, verifier),
            q_last: Quorum::initial(&cfg),
        }
    }

    /// Installs a trace sink (typically a clone of the simulation's, so
    /// events carry the ambient simulated time).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.base.trace = sink;
    }

    /// `⟨SUSPECTED, S⟩` from the failure detector (Algorithm 1 line 9).
    pub fn on_suspected(&mut self, s: ProcessSet) -> Vec<QsOutput> {
        let mut out = Vec::new();
        out.push(QsOutput::Broadcast(self.base.stamp_and_sign_row(s)));
        // The paper broadcasts "to all including self"; handling our own
        // UPDATE is what triggers updateQuorum, so run it locally now.
        self.update_quorum(&mut out);
        out
    }

    /// `⟨UPDATE, susted⟩_σl` received from the network (Algorithm 1
    /// line 16). Invalid signatures and malformed rows are dropped — an
    /// unauthenticated message cannot be attributed to anyone.
    pub fn on_update(&mut self, update: SignedUpdate) -> Vec<QsOutput> {
        let mut out = Vec::new();
        if self.base.merge_update(&update) {
            out.push(QsOutput::Broadcast(update)); // forward (line 23)
            self.update_quorum(&mut out); // line 24
        }
        out
    }

    /// `updateQuorum()` (Algorithm 1 lines 25–34). The paper re-enters the
    /// function through the self-addressed UPDATE after an epoch change;
    /// this implementation loops directly.
    fn update_quorum(&mut self, out: &mut Vec<QsOutput>) {
        loop {
            let g = self.base.matrix.build_graph(self.base.epoch);
            match g.first_independent_set(self.base.cfg.quorum_size()) {
                None => {
                    // Suspicions in the current epoch are inconsistent with
                    // any quorum: enter the next epoch and re-issue our
                    // current suspicions there (lines 28–29).
                    self.base.enter_next_epoch("qs");
                    let suspecting = self.base.suspecting;
                    out.push(QsOutput::Broadcast(
                        self.base.stamp_and_sign_row(suspecting),
                    ));
                }
                Some(set) => {
                    let q = Quorum::from_set_unchecked(set);
                    if q != self.q_last {
                        self.q_last = q;
                        self.base.record_quorum("qs", *q.members());
                        out.push(QsOutput::Quorum(q));
                    }
                    return;
                }
            }
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.base.epoch
    }

    /// The last issued (or initial) quorum.
    pub fn current_quorum(&self) -> Quorum {
        self.q_last
    }

    /// The processes this module's failure detector currently suspects.
    pub fn suspecting(&self) -> ProcessSet {
        self.base.suspecting
    }

    /// A copy of the suspect graph at the current epoch.
    pub fn suspect_graph(&self) -> SuspectGraph {
        self.base.matrix.build_graph(self.base.epoch)
    }

    /// Read access to the suspicion matrix.
    pub fn matrix(&self) -> &SuspectMatrix {
        &self.base.matrix
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.base.cfg
    }

    /// The owning process.
    pub fn me(&self) -> ProcessId {
        self.base.me
    }

    /// Behaviour counters (quorums per epoch, etc.).
    pub fn stats(&self) -> &SelectionStats {
        &self.base.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::UpdateRow;
    use qsel_types::crypto::Keychain;

    fn setup(n: u32, f: u32) -> (ClusterConfig, Keychain, Vec<QuorumSelection>) {
        let cfg = ClusterConfig::new(n, f).unwrap();
        let chain = Keychain::new(&cfg, 7);
        let modules = cfg
            .processes()
            .map(|p| QuorumSelection::new(cfg, p, chain.signer(p), chain.verifier()))
            .collect();
        (cfg, chain, modules)
    }

    fn set(ids: &[u32]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    fn quorums(out: &[QsOutput]) -> Vec<Quorum> {
        out.iter()
            .filter_map(|o| match o {
                QsOutput::Quorum(q) => Some(*q),
                _ => None,
            })
            .collect()
    }

    fn broadcasts(out: &[QsOutput]) -> Vec<SignedUpdate> {
        out.iter()
            .filter_map(|o| match o {
                QsOutput::Broadcast(u) => Some(u.clone()),
                _ => None,
            })
            .collect()
    }

    /// Delivers every broadcast to every other module until quiescence
    /// (instant, reliable propagation). Returns all quorums issued per
    /// module.
    fn propagate(modules: &mut [QuorumSelection], initial: Vec<QsOutput>) -> Vec<Vec<Quorum>> {
        let mut issued: Vec<Vec<Quorum>> = vec![Vec::new(); modules.len()];
        let mut queue: Vec<SignedUpdate> = broadcasts(&initial);
        while let Some(u) = queue.pop() {
            for m in modules.iter_mut() {
                let out = m.on_update(u.clone());
                issued[m.me().index()].extend(quorums(&out));
                queue.extend(broadcasts(&out));
            }
        }
        issued
    }

    #[test]
    fn initial_state_matches_paper() {
        let (_, _, modules) = setup(4, 1);
        let m = &modules[0];
        assert_eq!(m.epoch(), Epoch(1));
        assert_eq!(
            m.current_quorum().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn suspicion_excludes_process() {
        let (_, _, mut modules) = setup(4, 1);
        let out = modules[0].on_suspected(set(&[2]));
        let qs = quorums(&out);
        assert_eq!(qs.len(), 1);
        assert!(!qs[0].contains(ProcessId(2)));
        assert_eq!(qs[0].iter().map(|p| p.0).collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn quorum_not_reissued_when_unchanged() {
        let (_, _, mut modules) = setup(5, 2);
        let out1 = modules[0].on_suspected(set(&[4]));
        assert_eq!(
            quorums(&out1).len(),
            0,
            "default quorum {{1,2,3}} unaffected"
        );
        let out2 = modules[0].on_suspected(set(&[2]));
        assert_eq!(quorums(&out2).len(), 1);
    }

    #[test]
    fn updates_propagate_to_agreement() {
        let (_, _, mut modules) = setup(4, 1);
        let out = modules[1].on_suspected(set(&[3]));
        let _ = propagate(&mut modules, out);
        let reference = modules[0].current_quorum();
        for m in &modules {
            assert_eq!(m.current_quorum(), reference);
            assert_eq!(m.epoch(), modules[0].epoch());
            assert_eq!(m.matrix(), modules[0].matrix());
        }
        assert!(!reference.contains(ProcessId(3)));
    }

    #[test]
    fn epoch_advances_when_no_independent_set() {
        // n=4, f=1, q=3. Make the graph dense enough that no size-3
        // independent set exists: suspicions 1-2, 2-3, 3-4, 4-1, 1-3.
        let (_, chain, mut modules) = setup(4, 1);
        let mut all_out = modules[0].on_suspected(set(&[2, 3]));
        // Inject rows as if from p2, p3, p4 (their signers are available in
        // the test via the keychain — they play correct processes here).
        for (signer, row) in [
            (2u32, vec![Epoch(0), Epoch(0), Epoch(1), Epoch(0)]), // 2 suspects 3
            (3u32, vec![Epoch(0), Epoch(0), Epoch(0), Epoch(1)]), // 3 suspects 4
            (4u32, vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)]), // 4 suspects 1
        ] {
            let msg = chain.signer(ProcessId(signer)).sign(UpdateRow { row });
            all_out.extend(modules[0].on_update(msg));
        }
        // Graph in epoch 1: edges 1-2, 1-3, 2-3, 3-4, 1-4 → max IS = {2,4}:
        // size 2 < 3, so the module must advance to epoch 2, where only its
        // own re-stamped suspicions (1-2, 1-3) remain.
        assert_eq!(modules[0].epoch(), Epoch(2));
        let final_q = modules[0].current_quorum();
        assert_eq!(
            final_q.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn forged_update_rejected() {
        let (cfg, _, mut modules) = setup(4, 1);
        // A signature from a *different* keychain (wrong secret).
        let other = Keychain::new(&cfg, 999);
        let forged = other.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1); 4],
        });
        let out = modules[0].on_update(forged);
        assert!(out.is_empty());
        assert_eq!(modules[0].stats().invalid_updates, 1);
        assert_eq!(
            modules[0].current_quorum(),
            Quorum::initial(modules[0].config())
        );
    }

    #[test]
    fn malformed_row_rejected() {
        let (_, chain, mut modules) = setup(4, 1);
        let bad = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1); 3], // wrong length
        });
        let out = modules[0].on_update(bad);
        assert!(out.is_empty());
        assert_eq!(modules[0].stats().invalid_updates, 1);
    }

    #[test]
    fn duplicate_update_not_forwarded_twice() {
        let (_, chain, mut modules) = setup(4, 1);
        let msg = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0)],
        });
        let out1 = modules[0].on_update(msg.clone());
        assert_eq!(broadcasts(&out1).len(), 1, "first copy forwarded");
        let out2 = modules[0].on_update(msg);
        assert!(out2.is_empty(), "second copy changes nothing");
    }

    #[test]
    fn equivocating_updates_merge() {
        // p2 (faulty) sends different rows to nobody in particular; merging
        // both is harmless and deterministic (paper §VI-C: equivocation
        // "will only cause Quorum Selection to terminate faster").
        let (_, chain, mut modules) = setup(5, 2);
        let a = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(1), Epoch(0), Epoch(0), Epoch(0), Epoch(0)],
        });
        let b = chain.signer(ProcessId(2)).sign(UpdateRow {
            row: vec![Epoch(0), Epoch(0), Epoch(1), Epoch(0), Epoch(0)],
        });
        modules[0].on_update(a.clone());
        modules[0].on_update(b.clone());
        modules[1].on_update(b);
        modules[1].on_update(a);
        assert_eq!(modules[0].matrix(), modules[1].matrix());
        assert_eq!(modules[0].current_quorum(), modules[1].current_quorum());
    }

    #[test]
    fn crash_scenario_all_suspect_one() {
        // All correct processes suspect a crashed p5 concurrently; once
        // propagated, p5 is in no quorum (paper §VI-C).
        let (_, _, mut modules) = setup(5, 2);
        let mut pending = Vec::new();
        for m in &mut modules[..4] {
            pending.extend(m.on_suspected(set(&[5])));
        }
        let _ = propagate(&mut modules, pending);
        for m in &modules[..4] {
            assert!(!m.current_quorum().contains(ProcessId(5)));
        }
    }

    #[test]
    fn lemma2_new_quorum_only_after_edge_within_quorum() {
        // A suspicion between processes outside the current quorum (or with
        // only one endpoint inside) that doesn't change the lex-first IS
        // issues nothing.
        let (_, chain, mut modules) = setup(5, 2);
        // Current quorum {1,2,3}. p4 suspects p5: edge outside the quorum.
        let msg = chain.signer(ProcessId(4)).sign(UpdateRow {
            row: vec![Epoch(0), Epoch(0), Epoch(0), Epoch(0), Epoch(1)],
        });
        let out = modules[0].on_update(msg);
        assert_eq!(quorums(&out).len(), 0);
        assert_eq!(
            modules[0].current_quorum(),
            Quorum::initial(modules[0].config())
        );
    }

    #[test]
    #[should_panic(expected = "requires f >= 1")]
    fn f_zero_rejected() {
        let cfg = ClusterConfig::new(3, 0).unwrap();
        let chain = Keychain::new(&cfg, 1);
        let _ = QuorumSelection::new(
            cfg,
            ProcessId(1),
            chain.signer(ProcessId(1)),
            chain.verifier(),
        );
    }

    #[test]
    fn stats_track_quorums_per_epoch() {
        let (_, _, mut modules) = setup(5, 2);
        modules[0].on_suspected(set(&[2]));
        modules[0].on_suspected(set(&[2, 3]));
        let s = modules[0].stats();
        assert_eq!(s.quorums_issued, 2);
        assert_eq!(s.max_quorums_in_one_epoch(), 2);
    }
}
