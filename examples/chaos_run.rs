//! Fixed-seed chaos smoke run (experiment E-CHAOS).
//!
//! Executes one or more seeded chaos scenarios against the XPaxos stack
//! and prints a per-seed report: faults applied, crash-recoveries,
//! network-level duplication/reordering, and whether the run returned to
//! liveness after the last heal. Safety is asserted inside the runner.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example chaos_run            # seeds 1..=5
//! cargo run --release --example chaos_run 42         # a single seed
//! cargo run --release --example chaos_run 1 24       # seed range
//! ```
//!
//! Exits non-zero if any run fails to return to liveness, so CI can use
//! it as a smoke gate. A failing seed reproduces exactly: the plan is a
//! pure function of the seed (see `qsel_repro::chaos::plan_for`).

use qsel_repro::chaos::{plan_for, run_chaos, N};

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("seeds must be integers"))
        .collect();
    let (lo, hi) = match args[..] {
        [] => (1, 5),
        [s] => (s, s),
        [lo, hi, ..] => (lo, hi),
    };
    if lo > hi {
        eprintln!("empty seed range {lo}..={hi}");
        std::process::exit(2);
    }
    println!(
        "{:>6} {:>7} {:>9} {:>10} {:>9} {:>7} {:>11} {:>6}",
        "seed", "faults", "restarts", "duplicated", "reordered", "paused", "committed", "live"
    );
    let mut all_live = true;
    for seed in lo..=hi {
        let run = run_chaos(seed);
        let s = run.sim.stats();
        println!(
            "{:>6} {:>7} {:>9} {:>10} {:>9} {:>7} {:>8}/{:<2} {:>6}",
            seed,
            s.faults_injected,
            s.restarts,
            s.messages_duplicated,
            s.messages_reordered,
            s.events_buffered_paused,
            run.committed,
            run.expected,
            if run.live() { "yes" } else { "NO" },
        );
        if !run.live() {
            all_live = false;
            eprintln!(
                "seed {seed} failed to return to liveness; plan:\n{:#?}",
                plan_for(seed, N)
            );
        }
    }
    if !all_live {
        std::process::exit(1);
    }
}
