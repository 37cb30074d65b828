//! Property tests for the eventual-consistency core of Algorithms 1 and 2:
//! under arbitrary (per-link FIFO) delivery interleavings, duplicated
//! messages and arbitrary suspicion injections, all modules converge to
//! the same matrix, epoch and quorum once the network drains — the
//! Agreement property of §IV-A, mechanically.

use proptest::prelude::*;
use qsel::messages::{SignedFollowers, SignedUpdate};
use qsel::{FollowerSelection, FsOutput, QsOutput, QuorumSelection};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, ProcessId, ProcessSet};
use std::collections::VecDeque;

/// Per-link FIFO queues drained in a property-driven random order.
struct Network<Msg> {
    n: u32,
    links: Vec<VecDeque<Msg>>, // (from, to) indexed
}

impl<Msg: Clone> Network<Msg> {
    fn new(n: u32) -> Self {
        Network {
            n,
            links: (0..n * n).map(|_| VecDeque::new()).collect(),
        }
    }

    fn broadcast(&mut self, from: ProcessId, msg: Msg) {
        for to in 1..=self.n {
            if to != from.0 {
                let idx = (from.0 - 1) * self.n + (to - 1);
                self.links[idx as usize].push_back(msg.clone());
            }
        }
    }

    /// Pops from the `pick`-th non-empty link (wrapping), preserving
    /// per-link FIFO while letting the property choose the interleaving.
    fn pop(&mut self, pick: usize) -> Option<(ProcessId, Msg)> {
        let nonempty: Vec<usize> = (0..self.links.len())
            .filter(|&i| !self.links[i].is_empty())
            .collect();
        if nonempty.is_empty() {
            return None;
        }
        let idx = nonempty[pick % nonempty.len()];
        let msg = self.links[idx].pop_front().expect("nonempty");
        let to = ProcessId((idx as u32 % self.n) + 1);
        Some((to, msg))
    }

    fn is_empty(&self) -> bool {
        self.links.iter().all(VecDeque::is_empty)
    }
}

fn qs_modules(cfg: ClusterConfig, seed: u64) -> Vec<QuorumSelection> {
    let chain = Keychain::new(&cfg, seed);
    cfg.processes()
        .map(|p| QuorumSelection::new(cfg, p, chain.signer(p), chain.verifier()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 agreement under arbitrary interleavings: random
    /// one-shot suspicions at random processes, updates delivered in a
    /// property-chosen order, every message occasionally re-delivered.
    #[test]
    fn qs_converges_under_any_interleaving(
        suspicions in proptest::collection::vec((1u32..=5, 1u32..=5), 1..6),
        order in proptest::collection::vec(any::<usize>(), 0..400),
        dup_every in 2usize..7,
    ) {
        let cfg = ClusterConfig::new(5, 2).unwrap();
        let mut modules = qs_modules(cfg, 77);
        let mut net: Network<SignedUpdate> = Network::new(5);

        let handle = |m: &mut QuorumSelection, out: Vec<QsOutput>, net: &mut Network<SignedUpdate>| {
            for o in out {
                if let QsOutput::Broadcast(u) = o {
                    net.broadcast(m.me(), u);
                }
            }
        };

        for (by, target) in suspicions {
            if by == target {
                continue;
            }
            let s: ProcessSet = [ProcessId(target)].into_iter().collect();
            let out = modules[(by - 1) as usize].on_suspected(s);
            handle(&mut modules[(by - 1) as usize], out, &mut net);
            let out = modules[(by - 1) as usize].on_suspected(ProcessSet::new());
            handle(&mut modules[(by - 1) as usize], out, &mut net);
        }

        // Drain with the property-chosen interleaving, then finish
        // deterministically.
        let mut step = 0usize;
        let mut order_iter = order.into_iter();
        while !net.is_empty() {
            let pick = order_iter.next().unwrap_or(step);
            step += 1;
            let Some((to, msg)) = net.pop(pick) else { break };
            // Occasional duplicate delivery (idempotence check).
            if step.is_multiple_of(dup_every) {
                let m = &mut modules[to.index()];
                let out = m.on_update(msg.clone());
                let me = m.me();
                for o in out {
                    if let QsOutput::Broadcast(u) = o {
                        net.broadcast(me, u);
                    }
                }
            }
            let m = &mut modules[to.index()];
            let out = m.on_update(msg);
            let me = m.me();
            for o in out {
                if let QsOutput::Broadcast(u) = o {
                    net.broadcast(me, u);
                }
            }
            prop_assert!(step < 100_000, "message storm");
        }

        let reference = &modules[0];
        for m in &modules[1..] {
            prop_assert_eq!(m.matrix(), reference.matrix(), "matrix divergence");
            prop_assert_eq!(m.epoch(), reference.epoch(), "epoch divergence");
            prop_assert_eq!(m.current_quorum(), reference.current_quorum(), "quorum divergence");
        }
        // No-suspicion: the agreed quorum is an independent set of the
        // agreed suspect graph.
        let g = reference.suspect_graph();
        prop_assert!(g.is_independent(reference.current_quorum().members()));
    }

    /// Algorithm 2 agreement under arbitrary per-link-FIFO interleavings.
    #[test]
    fn fs_converges_under_any_interleaving(
        suspicions in proptest::collection::vec((1u32..=4, 1u32..=4), 1..5),
        order in proptest::collection::vec(any::<usize>(), 0..400),
    ) {
        #[derive(Clone)]
        enum Wire {
            U(SignedUpdate),
            F(SignedFollowers),
        }
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let chain = Keychain::new(&cfg, 99);
        let mut modules: Vec<FollowerSelection> = cfg
            .processes()
            .map(|p| FollowerSelection::new(cfg, p, chain.signer(p), chain.verifier()))
            .collect();
        let mut net: Network<Wire> = Network::new(4);

        fn handle(me: ProcessId, out: Vec<FsOutput>, net: &mut Network<Wire>) {
            for o in out {
                match o {
                    FsOutput::BroadcastUpdate(u) => net.broadcast(me, Wire::U(u)),
                    FsOutput::BroadcastFollowers(f) => net.broadcast(me, Wire::F(f)),
                    _ => {}
                }
            }
        }

        for (by, target) in suspicions {
            if by == target {
                continue;
            }
            let s: ProcessSet = [ProcessId(target)].into_iter().collect();
            let out = modules[(by - 1) as usize].on_suspected(s);
            handle(ProcessId(by), out, &mut net);
            let out = modules[(by - 1) as usize].on_suspected(ProcessSet::new());
            handle(ProcessId(by), out, &mut net);
        }

        let mut step = 0usize;
        let mut order_iter = order.into_iter();
        while !net.is_empty() {
            let pick = order_iter.next().unwrap_or(step);
            step += 1;
            let Some((to, msg)) = net.pop(pick) else { break };
            let m = &mut modules[to.index()];
            let me = m.me();
            let out = match msg {
                Wire::U(u) => m.on_update(u),
                Wire::F(f) => m.on_followers(f),
            };
            handle(me, out, &mut net);
            prop_assert!(step < 100_000, "message storm");
        }

        let reference = &modules[0];
        for m in &modules[1..] {
            prop_assert_eq!(m.matrix(), reference.matrix(), "matrix divergence");
            prop_assert_eq!(m.epoch(), reference.epoch(), "epoch divergence");
            prop_assert_eq!(m.leader(), reference.leader(), "leader divergence");
            prop_assert_eq!(
                m.current_members(),
                reference.current_members(),
                "membership divergence"
            );
        }
        // No correct process was "detected" — correct processes never
        // produce detectable evidence against each other (Lemma 7).
        for m in &modules {
            prop_assert_eq!(m.stats().detections_raised, 0, "false detection at {}", m.me());
        }
    }
}
