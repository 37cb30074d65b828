//! Lemma 1 (§VII): suspicions and epochs propagate between correct
//! processes within one communication round.

use qsel::node::{NodeConfig, SelectorNode, ServiceMsg};
use qsel_simnet::{DelayModel, LinkState, SimConfig, SimDuration, SimTime, Simulation};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, ProcessId};

fn cluster(seed: u64, delay: DelayModel) -> Simulation<ServiceMsg, SelectorNode> {
    let cfg = ClusterConfig::new(5, 2).unwrap();
    let chain = Keychain::new(&cfg, seed);
    let nodes: Vec<SelectorNode> = cfg
        .processes()
        .map(|p| SelectorNode::new_quorum(cfg, p, &chain, NodeConfig::default()))
        .collect();
    Simulation::new(SimConfig::new(5, seed).with_delay(delay), nodes)
}

/// A suspicion raised at one process appears in every correct process's
/// matrix within one communication round (max link delay) plus scheduling
/// slack.
#[test]
fn suspicion_propagates_within_one_round() {
    let max_delay = SimDuration::micros(150);
    let mut sim = cluster(3, DelayModel::uniform(SimDuration::micros(50), max_delay));
    sim.start();
    // Cut p2 → everyone so heartbeat expectations on p2 expire.
    for victim in [1u32, 3, 4, 5].map(ProcessId) {
        sim.set_link(
            ProcessId(2),
            victim,
            LinkState {
                drop_all: true,
                ..Default::default()
            },
        );
    }
    // Find the first instant some correct process records a suspicion of
    // p2, then verify all others have it one round later.
    let horizon = SimTime::from_micros(100_000);
    let step = SimDuration::micros(50);
    let mut t = SimTime::ZERO;
    let mut first_seen: Option<SimTime> = None;
    let observers = [1u32, 3, 4, 5].map(ProcessId);
    let edge_known = |sim: &Simulation<ServiceMsg, SelectorNode>, p: ProcessId| {
        // Any edge incident to p2 in p's *matrix* (epoch 1 graph).
        let node = sim.actor(p);
        let q = node.current_plain_quorum().expect("quorum mode");
        // The quorum no longer containing p2 implies the suspicion edge is
        // in the suspect graph at p.
        !q.contains(ProcessId(2))
    };
    'outer: while t < horizon {
        t += step;
        sim.run_until(t);
        for p in observers {
            if edge_known(&sim, p) {
                first_seen = Some(t);
                break 'outer;
            }
        }
    }
    let first = first_seen.expect("suspicion of the omitting p2 must arise");
    // One round (+ one scheduling step of slack) later: everyone knows.
    let deadline = first + max_delay + step + step;
    sim.run_until(deadline);
    for p in observers {
        assert!(
            edge_known(&sim, p),
            "at {p}: suspicion not propagated within one round (first seen {first}, now {deadline})"
        );
    }
}

/// After propagation quiesces, correct processes have identical matrices,
/// epochs and quorums (the Agreement property, §IV-A).
#[test]
fn matrices_converge_to_agreement() {
    let mut sim = cluster(11, DelayModel::default());
    sim.start();
    sim.set_link(
        ProcessId(2),
        ProcessId(4),
        LinkState {
            drop_all: true,
            ..Default::default()
        },
    );
    sim.run_until(SimTime::from_micros(300_000));
    let reference = sim.actor(ProcessId(1));
    let ref_q = reference.current_plain_quorum();
    let ref_epoch = reference.epoch();
    for p in [3u32, 5].map(ProcessId) {
        assert_eq!(sim.actor(p).current_plain_quorum(), ref_q, "quorum at {p}");
        assert_eq!(sim.actor(p).epoch(), ref_epoch, "epoch at {p}");
    }
}
