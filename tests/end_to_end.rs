//! Cross-crate end-to-end scenarios: mixed fault classes in one run, the
//! Byzantine actors of `qsel-adversary` against the full stack, and the
//! E12 throughput-recovery shape.

use qsel::node::{NodeConfig, SelectorNode};
use qsel_adversary::byzantine::{ClusterActor, FalseAccuser, MuteProcess};
use qsel_simnet::{LinkState, SimConfig, SimDuration, SimTime, Simulation};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder};

/// n = 7, f = 2: one mute Byzantine process and one false accuser at the
/// same time. Correct processes converge on a quorum with no live
/// suspicion inside it, and the mute process is excluded.
#[test]
fn mixed_byzantine_cluster_converges() {
    let cfg = ClusterConfig::new(7, 2).unwrap();
    let chain = Keychain::new(&cfg, 31);
    let actors: Vec<ClusterActor> = cfg
        .processes()
        .map(|p| match p.0 {
            2 => ClusterActor::Mute(MuteProcess),
            5 => ClusterActor::Accuser(FalseAccuser::new(
                cfg,
                p,
                &chain,
                NodeConfig::default(),
                vec![ProcessId(1), ProcessId(6)],
                SimDuration::millis(7),
            )),
            _ => ClusterActor::Honest(SelectorNode::new_quorum(
                cfg,
                p,
                &chain,
                NodeConfig::default(),
            )),
        })
        .collect();
    let mut sim = Simulation::new(SimConfig::new(7, 31), actors);
    sim.run_until(SimTime::from_micros(1_000_000));
    let honest: Vec<ProcessId> = [1u32, 3, 4, 6, 7].map(ProcessId).to_vec();
    let reference = sim
        .actor(honest[0])
        .node()
        .unwrap()
        .current_plain_quorum()
        .unwrap();
    for &p in &honest {
        let node = sim.actor(p).node().unwrap();
        let q = node.current_plain_quorum().unwrap();
        assert_eq!(q, reference, "disagreement at {p}");
        assert!(
            !q.contains(ProcessId(2)),
            "mute process inside quorum at {p}"
        );
        // The accuser's fabricated edges keep (5,1) and (5,6) apart.
        assert!(
            !(q.contains(ProcessId(5)) && q.contains(ProcessId(1))),
            "accuser paired with its victim p1 at {p}: {q}"
        );
        assert!(
            !(q.contains(ProcessId(5)) && q.contains(ProcessId(6))),
            "accuser paired with its victim p6 at {p}: {q}"
        );
    }
}

/// E12 shape: XPaxos throughput dips at a crash and recovers to the
/// fault-free rate after a single quorum change.
#[test]
fn throughput_recovers_after_crash() {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let mut sim = ClusterBuilder::new(cfg, 55)
        .clients(2, 1_000_000)
        .retry(SimDuration::millis(20))
        .build();
    sim.start();
    let bucket = SimDuration::millis(100);
    let mut t = SimTime::ZERO;
    let mut committed_before = 0u64;
    let mut rates = Vec::new();
    for step in 1..=8u64 {
        t = t + bucket;
        if step == 3 {
            sim.crash(ProcessId(2));
        }
        sim.run_until(t);
        let committed: u64 = sim
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .filter_map(|&id| sim.actor(id).client().map(|c| c.committed_ops()))
            .sum();
        rates.push(committed - committed_before);
        committed_before = committed;
    }
    assert_safety(&sim);
    let before = rates[1] as f64;
    let after = *rates.last().unwrap() as f64;
    assert!(before > 0.0, "no throughput before the crash: {rates:?}");
    assert!(
        after > 0.75 * before,
        "throughput did not recover: {rates:?}"
    );
    let r = sim.actor(ProcessId(1)).replica().unwrap();
    assert!(!r.active_quorum().contains(ProcessId(2)));
    assert!(
        r.stats().views_installed <= 3,
        "quorum selection needed {} view changes for one crash",
        r.stats().views_installed
    );
}

/// Omissions from a replica *outside* the active quorum have no effect at
/// all — the paper's headline property.
#[test]
fn passive_omissions_are_free() {
    let cfg = ClusterConfig::new(4, 1).unwrap();
    let ops = 30;
    let run = |cut: bool| {
        let mut sim = ClusterBuilder::new(cfg, 66).clients(1, ops).build();
        sim.start();
        if cut {
            // p4 is passive ({p1,p2,p3} is the initial quorum): cut all of
            // its links. Nothing should change.
            for other in [1u32, 2, 3].map(ProcessId) {
                sim.set_link(
                    ProcessId(4),
                    other,
                    LinkState {
                        drop_all: true,
                        ..Default::default()
                    },
                );
                sim.set_link(
                    other,
                    ProcessId(4),
                    LinkState {
                        drop_all: true,
                        ..Default::default()
                    },
                );
            }
        }
        sim.run_until(SimTime::from_micros(1_500_000));
        assert_eq!(total_committed(&sim), ops);
        let r = sim.actor(ProcessId(1)).replica().unwrap();
        (r.view(), r.stats().views_installed)
    };
    let (view_healthy, vc_healthy) = run(false);
    let (view_cut, vc_cut) = run(true);
    assert_eq!(
        view_healthy, view_cut,
        "cutting a passive replica changed the view"
    );
    assert_eq!(vc_healthy, vc_cut);
    assert_eq!(vc_cut, 0);
}
