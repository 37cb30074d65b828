//! Failure-detector behaviour around the global stabilization time.
//!
//! Run with: `cargo run --example detector_tuning`
//!
//! A 4-process heartbeat cluster (the Fig. 1 composition) runs on an
//! eventually-synchronous network: until GST = 200ms, message delays are
//! chaotic (up to 20ms); afterwards they settle at 50–150µs. The example
//! shows the raise/cancel churn before GST, the adaptive per-peer timeout
//! back-off that follows, and the quiet, agreed steady state after —
//! eventual strong accuracy in action.

use qsel::node::{NodeConfig, SelectorNode, ServiceMsg};
use qsel_detector::FdConfig;
use qsel_simnet::{DelayModel, SimConfig, SimDuration, SimTime, Simulation};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, ProcessId};

fn main() {
    let cfg = ClusterConfig::new(4, 1).expect("valid configuration");
    let chain = Keychain::new(&cfg, 11);
    let gst = SimTime::from_micros(200_000);
    let delay = DelayModel::eventually_synchronous(
        SimDuration::millis(20),
        SimDuration::micros(50),
        SimDuration::micros(150),
        gst,
    );
    let node_cfg = NodeConfig {
        heartbeat_period: SimDuration::millis(5),
        fd: FdConfig {
            initial_timeout: SimDuration::millis(1),
            timeout_cap: SimDuration::secs(60),
            adaptive: true,
        },
    };
    let nodes: Vec<SelectorNode> = cfg
        .processes()
        .map(|p| SelectorNode::new_quorum(cfg, p, &chain, node_cfg.clone()))
        .collect();
    let mut sim: Simulation<ServiceMsg, SelectorNode> =
        Simulation::new(SimConfig::new(4, 11).with_delay(delay), nodes);

    println!("eventually-synchronous network, GST at 200ms\n");
    println!(
        "{:>10} {:>14} {:>16} {:>12} {:>16}",
        "t (ms)", "raised", "cancelled", "epoch(p1)", "quorum(p1)"
    );
    let mut last = (0u64, 0u64);
    for step in 1..=8u64 {
        let t = SimTime::from_micros(step * 100_000);
        sim.run_until(t);
        let raised: u64 = sim
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .map(|&p| sim.actor(p).fd_stats().suspicions_raised)
            .sum();
        let cancelled: u64 = sim
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .map(|&p| sim.actor(p).fd_stats().suspicions_cancelled)
            .sum();
        let p1 = sim.actor(ProcessId(1));
        println!(
            "{:>10} {:>14} {:>16} {:>12} {:>16}",
            step * 100,
            format!("+{}", raised - last.0),
            format!("+{}", cancelled - last.1),
            p1.epoch().to_string(),
            p1.current_plain_quorum().expect("quorum mode").to_string(),
        );
        last = (raised, cancelled);
    }

    let q1 = sim.actor(ProcessId(1)).current_plain_quorum();
    let agreed = sim
        .ids()
        .collect::<Vec<_>>()
        .iter()
        .all(|&p| sim.actor(p).current_plain_quorum() == q1);
    println!("\nall processes agree on the final quorum: {agreed}");
    println!(
        "suspicions churned before GST, stopped after — eventual strong accuracy \
         via adaptive timeout back-off."
    );
}
