//! Pinning test for a known hole: client requests are unsigned, and a
//! replica takes `Request::client` on trust. A Byzantine replica (p7,
//! otherwise honest) sends every other replica a request in client p8's
//! name, op 5, before p8 issues it. The cluster executes the forgery at
//! slot 0, and p8's own op 5 (payload 163) never runs: when it arrives,
//! the log already has `(p8, 5)` and the replicas re-send slot 0's reply,
//! which p8 accepts. Agreement holds, so `assert_safety` passes; validity
//! does not. XPaxos signs client requests (σ_c); ROADMAP item 2 (client
//! authenticity) is the fix, and it will make this test fail on purpose:
//! the assertions below pin today's wrong outcome, not the right one.

use qsel_simnet::SimTime;
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, total_committed, ClusterBuilder};
use qsel_xpaxos::messages::{Request, XpMsg};

#[test]
fn a_replica_can_replace_a_clients_operation() {
    let (byzantine, victim) = (ProcessId(7), ProcessId(8));
    let forged = Request {
        client: victim,
        op: 5,
        payload: 999,
    };
    for seed in 1..=4 {
        let cfg = ClusterConfig::new(7, 2).unwrap();
        let mut sim = ClusterBuilder::new(cfg, seed).clients(8, 300).build();
        for p in 1..7 {
            let msg = XpMsg::Request(forged.clone());
            sim.inject_at(SimTime::from_micros(1), byzantine, ProcessId(p), msg);
        }
        sim.run_until(SimTime::from_micros(10_000_000));
        assert_eq!(total_committed(&sim), 2_400, "seed {seed}");
        assert_safety(&sim);
        for p in 1..7 {
            let log = sim.actor(ProcessId(p)).replica().unwrap().log();
            let executed = log
                .executed
                .iter()
                .find(|(_, r)| r.client == victim && r.op == 5);
            assert_eq!(executed, Some(&(0, forged.clone())), "seed {seed}, p{p}");
        }
    }
}
