//! Setups shared by more than one integration-test file.

use qsel_obs::TraceSink;
use qsel_simnet::{SimTime, Simulation};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{total_committed, ClusterBuilder, CorruptTransferPeer, XpActor};
use qsel_xpaxos::messages::XpMsg;
use qsel_xpaxos::replica::Replica;
use qsel_xpaxos::{CheckpointPolicy, ReplicaConfig};

/// A state transfer past a Byzantine donor: at n = 4, f = 1, p1 serves
/// tampered chunks, p4 crashes at 20 ms, misses all 600 ops, and
/// restarts at 5 s. Returns the simulation at 15 s and the decided
/// frontier p4 has to reach.
pub fn tampered_recovery(sink: TraceSink) -> (Simulation<XpMsg, XpActor>, u64) {
    let ops = 600u64;
    let shape = ClusterConfig::new(4, 1).unwrap();
    let rcfg = ReplicaConfig {
        checkpoint: CheckpointPolicy::new(50, 10_000),
        ..Default::default()
    };
    let rcfg_byz = rcfg.clone();
    let mut sim = ClusterBuilder::new(shape, 99)
        .replica_config(rcfg)
        .clients(2, ops / 2)
        .trace_sink(sink)
        .build_with(move |p, chain| {
            // p1 is the view-0 leader: ties on frontier break toward the
            // lowest id, so the recoverer's first donor pick is the
            // corrupt one — the failover path *must* run.
            (p == ProcessId(1)).then(|| {
                XpActor::CorruptTransfer(CorruptTransferPeer::new(Replica::new(
                    shape,
                    p,
                    chain,
                    rcfg_byz.clone(),
                )))
            })
        });
    sim.start();
    sim.run_until(SimTime::from_micros(20_000));
    sim.crash(ProcessId(4));
    sim.run_until(SimTime::from_micros(5_000_000));
    assert_eq!(total_committed(&sim), ops);
    let frontier = sim.actor(ProcessId(1)).replica().unwrap().log().watermark();
    sim.restart(ProcessId(4));
    sim.run_until(SimTime::from_micros(15_000_000));
    (sim, frontier)
}
