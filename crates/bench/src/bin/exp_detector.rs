//! Experiment E9 — failure-detector characterization (§IV-B).
//!
//! Two sweeps over a 4-process heartbeat cluster (the Fig. 1 composition):
//!
//! 1. **Crash detection latency** — the quorum member p2 crashes at
//!    t = 50ms; how long until
//!    every survivor's quorum excludes it, as a function of the initial
//!    expectation timeout.
//! 2. **Eventual strong accuracy** — under a chaotic pre-GST network
//!    (delays up to `before_max`), count false suspicions raised before
//!    and after GST. Adaptive back-off must drive post-GST false
//!    suspicions to zero.

use qsel::node::{NodeConfig, SelectorNode, ServiceMsg};
use qsel_bench::Table;
use qsel_detector::FdConfig;
use qsel_simnet::{DelayModel, SimConfig, SimDuration, SimTime, Simulation};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, ProcessId};

fn build(
    cfg: ClusterConfig,
    seed: u64,
    fd: FdConfig,
    delay: DelayModel,
) -> Simulation<ServiceMsg, SelectorNode> {
    let chain = Keychain::new(&cfg, seed);
    let node_cfg = NodeConfig {
        heartbeat_period: SimDuration::millis(5),
        fd,
    };
    let nodes: Vec<SelectorNode> = cfg
        .processes()
        .map(|p| SelectorNode::new_quorum(cfg, p, &chain, node_cfg.clone()))
        .collect();
    Simulation::new(SimConfig::new(cfg.n(), seed).with_delay(delay), nodes)
}

fn main() {
    let cfg = ClusterConfig::new(4, 1).expect("valid config");

    // Sweep 1: crash-detection latency vs initial timeout.
    let mut t1 = Table::new(vec![
        "initial timeout (ms)",
        "exclusion latency (ms)",
        "false suspicions",
    ]);
    for timeout_ms in [1u64, 2, 5, 10, 20, 50] {
        let fd = FdConfig {
            initial_timeout: SimDuration::millis(timeout_ms),
            timeout_cap: SimDuration::secs(60),
            adaptive: true,
        };
        let mut sim = build(cfg, 77, fd, DelayModel::default());
        sim.start();
        let crash_at = SimTime::from_micros(50_000);
        sim.run_until(crash_at);
        sim.crash(ProcessId(2)); // an active-quorum member
                                 // Advance until all survivors exclude p2 (or give up at 2s).
        let mut excluded_at = None;
        let mut t = crash_at;
        while excluded_at.is_none() && t < SimTime::from_micros(2_000_000) {
            t += SimDuration::millis(1);
            sim.run_until(t);
            let all_excluded = [1u32, 3, 4].iter().all(|&p| {
                !sim.actor(ProcessId(p))
                    .current_plain_quorum()
                    .expect("quorum mode")
                    .contains(ProcessId(2))
            });
            if all_excluded {
                excluded_at = Some(t);
            }
        }
        let false_susp: u64 = [1u32, 3, 4]
            .iter()
            .map(|&p| sim.actor(ProcessId(p)).fd_stats().suspicions_cancelled)
            .sum();
        t1.row(vec![
            timeout_ms.to_string(),
            excluded_at
                .map(|t| format!("{:.1}", (t - crash_at).as_micros() as f64 / 1000.0))
                .unwrap_or_else(|| ">1950".into()),
            false_susp.to_string(),
        ]);
    }
    t1.print("E9a: crash-exclusion latency vs initial expectation timeout (4 nodes, f=1)");

    // Sweep 2: false suspicions before/after GST under chaotic delays.
    let mut t2 = Table::new(vec![
        "pre-GST max delay (ms)",
        "suspicions raised pre-GST",
        "suspicions raised post-GST (after settle)",
        "agree on initial quorum at end",
    ]);
    for chaos_ms in [1u64, 5, 20, 50] {
        let gst = SimTime::from_micros(300_000);
        let delay = DelayModel::eventually_synchronous(
            SimDuration::millis(chaos_ms),
            SimDuration::micros(50),
            SimDuration::micros(150),
            gst,
        );
        let fd = FdConfig {
            initial_timeout: SimDuration::millis(1),
            timeout_cap: SimDuration::secs(60),
            adaptive: true,
        };
        let mut sim = build(cfg, 99, fd, delay);
        sim.run_until(gst);
        let pre: u64 = sim
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .map(|&p| sim.actor(p).fd_stats().suspicions_raised)
            .sum();
        // Give the adaptive timeouts a settling window after GST, then
        // measure a quiet observation window.
        sim.run_until(gst + SimDuration::millis(200));
        let settled: u64 = sim
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .map(|&p| sim.actor(p).fd_stats().suspicions_raised)
            .sum();
        sim.run_until(gst + SimDuration::millis(700));
        let end: u64 = sim
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .map(|&p| sim.actor(p).fd_stats().suspicions_raised)
            .sum();
        let q0 = sim.actor(ProcessId(1)).current_plain_quorum();
        let agreed = sim
            .ids()
            .collect::<Vec<_>>()
            .iter()
            .all(|&p| sim.actor(p).current_plain_quorum() == q0);
        t2.row(vec![
            chaos_ms.to_string(),
            pre.to_string(),
            (end - settled).to_string(),
            format!("{agreed}"),
        ]);
    }
    t2.print("E9b: eventual strong accuracy — false suspicions around GST");
    println!(
        "Reading: chaotic pre-GST delays cause raise/cancel churn; after GST \
         the doubled timeouts exceed the real delay bound and suspicions stop \
         (eventual strong accuracy), with all processes agreeing on a quorum."
    );
}
