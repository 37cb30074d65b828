//! Experiment E-ABL — ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Degree pruning** in the independent-set solver (the Theorem 3
//!    observation: nodes of degree ≥ f+1 cannot join a quorum) — measured
//!    as backtracking-node counts proxied by wall-clock on dense
//!    adversarial graphs.
//! 2. **Adaptive timeout back-off** in the failure detector — without it,
//!    eventual strong accuracy is lost on an eventually-synchronous
//!    network (false suspicions keep flowing after GST).
//! 3. **Epoch expiry** of suspicions (Algorithm 1's epochs) — with
//!    permanent suspicions, transient false accusations accumulate until
//!    no quorum exists at all; epochs let the system shed them.

use qsel::node::{NodeConfig, SelectorNode, ServiceMsg};
use qsel_bench::Table;
use qsel_detector::FdConfig;
use qsel_graph::SuspectGraph;
use qsel_simnet::{DelayModel, SimConfig, SimDuration, SimTime, Simulation};
use qsel_types::crypto::Keychain;
use qsel_types::{ClusterConfig, ProcessId};

/// Dense adversarial graph: f faulty nodes each suspected by many.
fn dense_graph(n: u32, f: u32) -> SuspectGraph {
    let mut g = SuspectGraph::new(n);
    for b in 1..=f {
        for k in 0..(n / 2) {
            let peer = f + 1 + ((b * 5 + k * 3) % (n - f));
            if peer != b && peer <= n {
                g.add_edge(ProcessId(b), ProcessId(peer));
            }
        }
    }
    g
}

fn ablate_pruning() {
    let mut t = Table::new(vec![
        "n",
        "f",
        "with pruning (µs/solve)",
        "without pruning (µs/solve)",
        "speedup",
    ]);
    for f in [4u32, 8, 12, 16] {
        let n = 3 * f + 1;
        let g = dense_graph(n, f);
        let q = n - f;
        let reps = 2_000u32;
        let timed = |prune: bool| {
            let ((), elapsed) = qsel_bench::host::timed(|| {
                for _ in 0..reps {
                    let s = if prune {
                        g.first_independent_set(q)
                    } else {
                        g.first_independent_set_no_prune(q)
                    };
                    std::hint::black_box(&s);
                }
            });
            elapsed.as_micros() as f64 / f64::from(reps)
        };
        // Verify both agree before timing.
        assert_eq!(
            g.first_independent_set(q),
            g.first_independent_set_no_prune(q)
        );
        let with = timed(true);
        let without = timed(false);
        t.row(vec![
            n.to_string(),
            f.to_string(),
            format!("{with:.2}"),
            format!("{without:.2}"),
            format!("{:.2}x", without / with),
        ]);
    }
    t.print("E-ABL-1: Theorem 3 degree pruning in the lex-first IS solver");
}

fn run_gst_cluster(adaptive: bool) -> (u64, u64) {
    let cfg = ClusterConfig::new(4, 1).expect("valid config");
    let chain = Keychain::new(&cfg, 5);
    let gst = SimTime::from_micros(300_000);
    // Post-GST delays (2–4ms) deliberately exceed the 1ms initial
    // timeout: accuracy is only reachable by growing the timeout.
    let delay = DelayModel::eventually_synchronous(
        SimDuration::millis(20),
        SimDuration::millis(2),
        SimDuration::millis(4),
        gst,
    );
    let node_cfg = NodeConfig {
        heartbeat_period: SimDuration::millis(5),
        fd: FdConfig {
            initial_timeout: SimDuration::millis(1),
            timeout_cap: SimDuration::secs(60),
            adaptive,
        },
    };
    let nodes: Vec<SelectorNode> = cfg
        .processes()
        .map(|p| SelectorNode::new_quorum(cfg, p, &chain, node_cfg.clone()))
        .collect();
    let mut sim: Simulation<ServiceMsg, SelectorNode> =
        Simulation::new(SimConfig::new(4, 5).with_delay(delay), nodes);
    // Settle window after GST, then measure a quiet period.
    sim.run_until(gst + SimDuration::millis(200));
    let settled: u64 = sim
        .ids()
        .collect::<Vec<_>>()
        .iter()
        .map(|&p| sim.actor(p).fd_stats().suspicions_raised)
        .sum();
    sim.run_until(gst + SimDuration::millis(1_200));
    let end: u64 = sim
        .ids()
        .collect::<Vec<_>>()
        .iter()
        .map(|&p| sim.actor(p).fd_stats().suspicions_raised)
        .sum();
    let epochs = sim
        .ids()
        .collect::<Vec<_>>()
        .iter()
        .map(|&p| sim.actor(p).epoch().get())
        .max()
        .unwrap_or(1);
    (end - settled, epochs)
}

fn ablate_adaptivity() {
    let mut t = Table::new(vec![
        "adaptive back-off",
        "false suspicions in 1s after GST(+200ms)",
        "max epoch reached",
    ]);
    for adaptive in [true, false] {
        let (suspicions, epochs) = run_gst_cluster(adaptive);
        t.row(vec![
            adaptive.to_string(),
            suspicions.to_string(),
            epochs.to_string(),
        ]);
    }
    t.print("E-ABL-2: adaptive timeout back-off (eventual strong accuracy)");
}

fn ablate_epochs() {
    // Abstract comparison: transient false suspicions (raised once, then
    // cancelled) hit random correct pairs. With epoch expiry, a quorum
    // exists again at the latest one epoch later; with permanent
    // suspicions the graph only grows until no quorum of size q remains.
    let mut t = Table::new(vec![
        "n",
        "f",
        "transient suspicions until no quorum (permanent)",
        "with epochs",
    ]);
    for f in [1u32, 2, 3] {
        let n = 3 * f + 1;
        let q = n - f;
        // Permanent: add random distinct correct-correct edges until no IS.
        let mut g = SuspectGraph::new(n);
        let mut count = 0u32;
        let mut state = 0xDEADBEEFu64;
        while g.has_independent_set(q) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 33) % u64::from(n) + 1;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (state >> 33) % u64::from(n) + 1;
            if a != b {
                g.add_edge(ProcessId(a as u32), ProcessId(b as u32));
                count += 1;
            }
            assert!(count < 10_000);
        }
        t.row(vec![
            n.to_string(),
            f.to_string(),
            format!("{count} (then stuck forever)"),
            "unbounded (epoch change sheds stale suspicions)".to_owned(),
        ]);
    }
    t.print("E-ABL-3: epoch expiry of suspicions (Algorithm 1 lines 27–29)");
    println!(
        "Reading: without epochs, a handful of transient false suspicions \
         permanently destroys all quorums; Algorithm 1's epoch bump discards \
         exactly the suspicions that were not re-raised, so the system \
         recovers from any finite burst of inaccuracy."
    );
}

fn main() {
    ablate_pruning();
    ablate_adaptivity();
    ablate_epochs();
}
