//! The end-to-end measurement: set-up timings, one untimed warm-up
//! repetition, then timed repetitions of the same deterministic cells.

use std::time::Instant;

use qsel_obs::TraceSink;
use qsel_scenario::{compile_plan, parse};
use qsel_simnet::Simulation;

use crate::cells::{build_actors, build_sim, run_cell, Cost, Counts, Pipeline, Workload};
use crate::stats::{grouped_percentile, median};

/// How many times the set-up of a whole repetition is timed.
const SETUPS: usize = 51;

/// The pooled result of a run: every end-to-end metric plus what the
/// report prints beside them.
#[derive(Debug)]
pub struct EndToEnd {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    /// Wall seconds of each timed repetition, sorted.
    pub rep_wall_s: Vec<f64>,
    pub latency_samples: usize,
    pub samples_beyond_p99: usize,
    pub view_changes: u64,
    pub max_quorums_per_epoch: u64,
    /// `C(f+2, 2)`, the Theorem 3 bound, for the largest `f` among cells.
    pub quorum_bound: u64,
}

/// Parses every input and builds every cell's simulation, as a repetition
/// does before its first event; returns the seconds that took.
fn set_up_once(w: &Workload) -> f64 {
    let start = Instant::now();
    for text in &w.sources {
        let sc = parse(text).expect("input parsed at load");
        sc.validate().expect("input validated at load");
    }
    for cell in &w.cells {
        match w.pipeline {
            Pipeline::Sim => {
                std::hint::black_box(build_sim(cell));
            }
            Pipeline::Scenario => {
                let sink = TraceSink::unbounded();
                let (scfg, actors) = build_actors(cell, &sink);
                let mut sim = Simulation::new(scfg, actors);
                sim.set_trace_sink(sink);
                sim.schedule_plan(compile_plan(&cell.scenario));
                std::hint::black_box(sim);
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// One repetition: every cell once. Returns per-cell counts and costs.
fn repetition(w: &Workload) -> Result<Vec<(Counts, Cost)>, String> {
    w.cells.iter().map(|c| run_cell(c, w.pipeline)).collect()
}

/// Longest interval without a commit, from t = 0 to the last commit.
fn max_gap(commit_times_us: &[u64]) -> u64 {
    let mut t = commit_times_us.to_vec();
    t.sort_unstable();
    let first = t.first().copied().unwrap_or(0);
    t.windows(2).map(|w| w[1] - w[0]).fold(first, u64::max)
}

/// What the cells of one seed group — every input file at one simulation
/// seed — add up to.
#[derive(Debug, Default, PartialEq, Eq)]
struct Group {
    commits: u64,
    messages_sent: u64,
    allocs: u64,
    alloc_bytes: u64,
    /// Most bytes live during any one cell.
    peak_live_bytes: u64,
    /// Simulated time up to each cell's last commit, summed.
    sim_us: u64,
    /// Longest interval without a commit in any one cell.
    max_gap_us: u64,
}

/// One repetition's results by seed group, in seed order. Counts and
/// simulated-time metrics are computed per group and reported as the
/// median over groups, not from the sum: some simulation seeds take a
/// markedly costlier path (one in fifteen sends `failover_n7` through a
/// recovery with a fifth more messages), a run at another `--seed` may or
/// may not draw one, and a sum would carry it into the result.
fn seed_groups(w: &Workload, rep: &[(Counts, Cost)]) -> Vec<Group> {
    let mut by_seed = std::collections::BTreeMap::<u64, Group>::new();
    for (cell, (counts, cost)) in w.cells.iter().zip(rep) {
        let g = by_seed.entry(cell.seed).or_default();
        g.commits += counts.committed;
        g.messages_sent += counts.messages_sent;
        g.allocs += cost.allocs;
        g.alloc_bytes += cost.alloc_bytes;
        g.peak_live_bytes = g.peak_live_bytes.max(cost.peak_live_bytes);
        g.sim_us += counts.commit_times_us.iter().copied().max().unwrap_or(0);
        g.max_gap_us = g.max_gap_us.max(max_gap(&counts.commit_times_us));
    }
    by_seed.into_values().collect()
}

/// Measures `w`: timed repetitions until `seconds` of them are spent, and
/// no fewer than `min_reps`; `warm_up` adds one untimed repetition first.
///
/// # Errors
///
/// Returns the first failed correctness check: a cell's own (full commit,
/// safety, verdict), or counts that differ between repetitions.
pub fn measure(
    w: &Workload,
    seconds: f64,
    min_reps: usize,
    warm_up: bool,
) -> Result<EndToEnd, String> {
    let mut setups: Vec<f64> = (0..SETUPS).map(|_| set_up_once(w)).collect();

    if warm_up {
        repetition(w)?;
    }
    let first = repetition(w)?;
    let wall_of = |rep: &[(Counts, Cost)]| rep.iter().map(|(_, c)| c.wall_s).sum::<f64>();
    let mut rep_wall_s = vec![wall_of(&first)];
    let mut spent = rep_wall_s[0];
    while rep_wall_s.len() < min_reps || spent + spent / rep_wall_s.len() as f64 <= seconds {
        let rep = repetition(w)?;
        for (i, ((counts, cost), (counts0, cost0))) in rep.iter().zip(&first).enumerate() {
            let same_cost = (cost.allocs, cost.alloc_bytes, cost.peak_live_bytes)
                == (cost0.allocs, cost0.alloc_bytes, cost0.peak_live_bytes);
            if counts != counts0 || !same_cost {
                return Err(format!(
                    "cell {i} ({} seed {}) is not deterministic: repetition {} differs from the first \
                     ({cost:?} vs {cost0:?})",
                    w.cells[i].scenario.name,
                    w.cells[i].seed,
                    rep_wall_s.len() + 1
                ));
            }
        }
        let wall = wall_of(&rep);
        spent += wall;
        rep_wall_s.push(wall);
    }

    let commits: u64 = first.iter().map(|(c, _)| c.committed).sum();
    let attempted: u64 = first.iter().map(|(c, _)| c.issued).sum();
    if commits == 0 {
        return Err("no operation committed".into());
    }
    let mut latencies: Vec<u64> = first
        .iter()
        .flat_map(|(c, _)| c.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let p99 = grouped_percentile(&latencies, 99);
    let mut rates: Vec<f64> = rep_wall_s.iter().map(|w| commits as f64 / w).collect();

    let groups = seed_groups(w, &first);
    let over_groups = |f: &dyn Fn(&Group) -> f64| {
        let mut values: Vec<f64> = groups.iter().map(f).collect();
        median(&mut values)
    };
    let metrics = vec![
        ("commits_per_wall_s", median(&mut rates)),
        ("setup_s", median(&mut setups)),
        (
            "allocs_per_commit",
            over_groups(&|g| g.allocs as f64 / g.commits as f64),
        ),
        (
            "alloc_bytes_per_commit",
            over_groups(&|g| g.alloc_bytes as f64 / g.commits as f64),
        ),
        (
            "peak_live_bytes",
            over_groups(&|g| g.peak_live_bytes as f64),
        ),
        (
            "commit_latency_p50_sim_us",
            grouped_percentile(&latencies, 50),
        ),
        ("commit_latency_p99_sim_us", p99),
        (
            "commits_per_sim_s",
            over_groups(&|g| g.commits as f64 / (g.sim_us as f64 / 1e6)),
        ),
        (
            "msgs_per_commit",
            over_groups(&|g| g.messages_sent as f64 / g.commits as f64),
        ),
        (
            "max_commit_gap_sim_us",
            over_groups(&|g| g.max_gap_us as f64),
        ),
    ];
    rep_wall_s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let f_max = w
        .cells
        .iter()
        .map(|c| u64::from(c.scenario.cluster.f))
        .max()
        .unwrap_or(0);
    Ok(EndToEnd {
        metrics,
        attempted,
        failed: attempted - commits,
        reps: rep_wall_s.len(),
        rep_wall_s,
        latency_samples: latencies.len(),
        samples_beyond_p99: latencies.iter().filter(|l| **l as f64 > p99).count(),
        view_changes: first.iter().map(|(c, _)| c.view_changes).max().unwrap_or(0),
        max_quorums_per_epoch: first
            .iter()
            .map(|(c, _)| c.max_quorums_per_epoch)
            .max()
            .unwrap_or(0),
        quorum_bound: (f_max + 2) * (f_max + 1) / 2,
    })
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::cells::Sizing;

    fn result(committed: u64, messages_sent: u64) -> (Counts, Cost) {
        let counts = Counts {
            committed,
            messages_sent,
            commit_times_us: vec![10, 40, 50],
            ..Counts::default()
        };
        (counts, Cost::default())
    }

    #[test]
    fn cells_are_grouped_by_seed_and_an_outlier_group_does_not_move_the_median() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
        let sizing = Sizing {
            seeds_per_file: 3,
            ops_divisor: 20,
        };
        let single = Workload::load("failover_n7", 1, &dir, sizing).expect("frozen input loads");
        let rep = [result(100, 2_000), result(100, 2_600), result(100, 2_010)];
        let groups = seed_groups(&single, &rep);
        assert_eq!(groups.len(), 3);
        assert_eq!((groups[1].messages_sent, groups[1].max_gap_us), (2_600, 30));
        let mut per_commit: Vec<f64> = groups
            .iter()
            .map(|g| g.messages_sent as f64 / g.commits as f64)
            .collect();
        assert_eq!(median(&mut per_commit), 20.1);

        // The league's cells are file-major; a group is every file at one seed.
        let league = Workload::load("league_traced", 1, &dir, sizing).expect("frozen inputs load");
        let rep: Vec<_> = league.cells.iter().map(|_| result(1, 1)).collect();
        let groups = seed_groups(&league, &rep);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.commits == 9 && g.sim_us == 9 * 50));
    }
}
