//! A replica holds VIEW-CHANGE messages only for targets above its view:
//! an installed view is never targeted again, so anything at or below it
//! is dead state. Checked after every simulation step, at n = 7, f = 2,
//! over runs that change views: a leader crash, and one signed
//! VIEW-CHANGE that a Byzantine p7 (otherwise honest) injects at 50 ms.

use qsel_simnet::{SimDuration, SimTime, Simulation};
use qsel_types::{ClusterConfig, ProcessId};
use qsel_xpaxos::harness::{assert_safety, ClusterBuilder, XpActor};
use qsel_xpaxos::messages::{ViewChangePayload, XpMsg};
use qsel_xpaxos::ViewPolicy;

const N: u32 = 7;
const HORIZON: SimTime = SimTime::from_micros(10_000_000);
const ATTACK_AT: SimTime = SimTime::from_micros(50_000);

fn builder(seed: u64) -> ClusterBuilder {
    ClusterBuilder::new(ClusterConfig::new(N, 2).unwrap(), seed)
        .clients(8, 300)
        .retry(SimDuration::millis(5))
}

/// Steps `sim` to `until`, asserting the bound after every event.
/// Returns how many view installs it saw.
fn run_checking(sim: &mut Simulation<XpMsg, XpActor>, until: SimTime) -> u64 {
    let mut installs = 0;
    while sim.now() < until && sim.step() {
        for id in sim.ids() {
            let Some(r) = sim.actor(id).replica() else {
                continue;
            };
            if let Some(t) = r.collected_view_change_targets().find(|&t| t <= r.view()) {
                panic!(
                    "p{} holds VIEW-CHANGE target {t} at view {}",
                    id.0,
                    r.view()
                );
            }
        }
    }
    for id in sim.ids() {
        if let Some(r) = sim.actor(id).replica() {
            installs += r.view_history().len() as u64;
        }
    }
    installs
}

#[test]
fn injected_view_change_leaves_no_target_at_or_below_the_view() {
    let mut installs = 0;
    for seed in 1..=8 {
        let b = builder(seed);
        let chain = b.keychain();
        let mut sim = b.build();
        installs += run_checking(&mut sim, ATTACK_AT);
        // The first view above every replica's view whose quorum holds p6.
        let views = ViewPolicy::new(&ClusterConfig::new(N, 2).unwrap());
        let highest = (1..N)
            .filter_map(|p| sim.actor(ProcessId(p)).replica().map(|r| r.view()))
            .max()
            .unwrap();
        let target_view = (highest + 1..)
            .find(|&v| views.group(v).contains(ProcessId(6)))
            .unwrap();
        let vc = chain.signer(ProcessId(N)).sign(ViewChangePayload {
            target_view,
            watermark: 0,
            prepared: Vec::new(),
        });
        for p in 1..N {
            sim.inject_at(
                ATTACK_AT,
                ProcessId(N),
                ProcessId(p),
                XpMsg::ViewChange(vc.clone()),
            );
        }
        installs += run_checking(&mut sim, HORIZON);
        assert_safety(&sim);
    }
    assert!(installs > 0, "the attack must drive view changes");
}

#[test]
fn leader_crash_leaves_no_target_at_or_below_the_view() {
    let mut sim = builder(1).build();
    run_checking(&mut sim, ATTACK_AT);
    sim.crash(ProcessId(1));
    let installs = run_checking(&mut sim, HORIZON);
    assert_safety(&sim);
    assert!(installs > 0, "the crash must drive a view change");
}

/// One signed VIEW-CHANGE for the last view, `u64::MAX`: no view lies
/// above it, so whatever the replicas do with it must not overflow the
/// view arithmetic (in a debug build every replica used to panic on
/// installing it), and the bound above still holds.
#[test]
fn view_change_to_the_last_view_does_not_overflow() {
    for seed in 1..=2 {
        let b = builder(seed);
        let chain = b.keychain();
        let mut sim = b.build();
        run_checking(&mut sim, ATTACK_AT);
        let vc = chain.signer(ProcessId(N)).sign(ViewChangePayload {
            target_view: u64::MAX,
            watermark: 0,
            prepared: Vec::new(),
        });
        for p in 1..N {
            sim.inject_at(
                ATTACK_AT,
                ProcessId(N),
                ProcessId(p),
                XpMsg::ViewChange(vc.clone()),
            );
        }
        run_checking(&mut sim, SimTime::from_micros(1_000_000));
        assert_safety(&sim);
    }
}
