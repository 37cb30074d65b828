//! The [`Scenario`] structure and its canonical serialized form.
//!
//! A scenario composes everything a run needs — cluster shape, workload,
//! batching, adversary, geo delay matrix, fault script, and run/verdict
//! knobs — into one value. [`Scenario::to_toml`] emits the canonical text
//! form; [`crate::parse::parse`] reads it back. The two are exact
//! inverses: `parse(s.to_toml()) == s` for every valid scenario, which the
//! round-trip property test pins down. All quantities are integers
//! (microseconds, counts, permille) so the round-trip needs no
//! float-printing care.

use std::fmt::Write as _;

use qsel_adversary::registry::Strategy;

/// Which quorum/view policy the replicas run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1, Quorum Selection (`QuorumPolicy::Selection`) — the
    /// paper's protocol, Theorem 3 bound `f(f+1)` quorums per epoch.
    Qs,
    /// The original XPaxos round-robin view enumeration
    /// (`QuorumPolicy::Enumeration`) — the baseline; no per-epoch bound
    /// is claimed.
    Enumeration,
}

impl Algorithm {
    /// The scenario-file name of this algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Qs => "qs",
            Algorithm::Enumeration => "enumeration",
        }
    }

    /// Looks an algorithm up by scenario-file name.
    pub fn from_name(name: &str) -> Result<Algorithm, String> {
        match name {
            "qs" => Ok(Algorithm::Qs),
            "enumeration" => Ok(Algorithm::Enumeration),
            other => Err(format!(
                "unknown algorithm {other:?} (known: qs, enumeration)"
            )),
        }
    }
}

/// `[cluster]` — replica count and fault threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cluster {
    /// Replica count (processes `1..=n`).
    pub n: u32,
    /// Fault threshold; the cluster must satisfy `n - f > f`.
    pub f: u32,
    /// Quorum/view policy.
    pub algorithm: Algorithm,
}

impl Default for Cluster {
    fn default() -> Self {
        Cluster {
            n: 4,
            f: 1,
            algorithm: Algorithm::Qs,
        }
    }
}

/// Client pacing discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadMode {
    /// Closed loop: one outstanding request per client, retried until it
    /// commits (`retry_us` back-off base).
    Closed,
    /// Open loop: a request every `interarrival_us` regardless of
    /// completion, no retries — losses show as a commit-fraction drop.
    Open,
}

impl WorkloadMode {
    /// The scenario-file name of this mode.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadMode::Closed => "closed",
            WorkloadMode::Open => "open",
        }
    }

    /// Looks a mode up by scenario-file name.
    pub fn from_name(name: &str) -> Result<WorkloadMode, String> {
        match name {
            "closed" => Ok(WorkloadMode::Closed),
            "open" => Ok(WorkloadMode::Open),
            other => Err(format!(
                "unknown workload mode {other:?} (known: closed, open)"
            )),
        }
    }
}

/// `[workload]` — the client population and its pacing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Client actor count (ids `n+1..=n+clients`).
    pub clients: u32,
    /// Operations each client issues.
    pub ops_per_client: u64,
    /// Pacing discipline.
    pub mode: WorkloadMode,
    /// Closed-loop retry back-off base, microseconds.
    pub retry_us: u64,
    /// Open-loop request interarrival, microseconds.
    pub interarrival_us: u64,
    /// Per-message egress serialization cost, microseconds — the
    /// simulator's stand-in for request size.
    pub tx_cost_us: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            clients: 2,
            ops_per_client: 6,
            mode: WorkloadMode::Closed,
            retry_us: 20_000,
            interarrival_us: 1_000,
            tx_cost_us: 0,
        }
    }
}

/// `[batch]` — leader batching/pipelining ([`qsel_xpaxos::BatchPolicy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchSpec {
    /// Most requests per batch (slot).
    pub max_size: u64,
    /// Longest a non-full batch waits, microseconds.
    pub max_delay_us: u64,
    /// Most undecided slots in flight.
    pub pipeline_depth: u64,
}

impl Default for BatchSpec {
    fn default() -> Self {
        BatchSpec {
            max_size: 1,
            max_delay_us: 0,
            pipeline_depth: 1,
        }
    }
}

/// `[checkpoint]` — signed checkpoints, log compaction, and incremental
/// state transfer ([`qsel_xpaxos::CheckpointPolicy`]). The default
/// interval of 0 disables the subsystem, preserving the pre-checkpoint
/// protocol (and its golden traces) exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CheckpointSpec {
    /// Checkpoint period in slots (0 disables checkpointing).
    pub interval: u64,
    /// Compacted batches kept resident below the stable checkpoint for
    /// serving compact (MMR-proved) state transfer.
    pub archive_retain: u64,
}

/// `[adversary]` — the Byzantine strategy and its placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Adversary {
    /// Strategy from the [`qsel_adversary::registry`].
    pub strategy: Strategy,
    /// The controlled replica id (ignored for [`Strategy::None`]).
    pub process: u32,
}

impl Default for Adversary {
    fn default() -> Self {
        Adversary {
            strategy: Strategy::None,
            process: 0,
        }
    }
}

/// `[[link]]` — a geo delay override for one (or one pair of) directed
/// links. Links not listed keep the base delay model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeoLink {
    /// Sending side.
    pub from: u32,
    /// Receiving side.
    pub to: u32,
    /// Minimum one-way delay, microseconds.
    pub min_us: u64,
    /// Maximum one-way delay, microseconds.
    pub max_us: u64,
    /// Also install the mirror `to → from` link with the same delay;
    /// `false` leaves the reverse direction on the base model (asymmetric
    /// routes).
    pub symmetric: bool,
}

/// The fault vocabulary of the DSL — a declarative skin over
/// [`qsel_simnet::FaultEvent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Partition `group` from everyone else (replaces prior partition).
    Partition(Vec<u32>),
    /// Heal every link.
    HealAll,
    /// Crash a process.
    Crash(u32),
    /// Restart a crashed process.
    Restart(u32),
    /// Pause a process (gray stall; events buffer).
    Pause(u32),
    /// Resume a paused process.
    Resume(u32),
    /// Add latency + jitter to the directed link.
    DegradeLink {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
        /// Deterministic added latency, microseconds.
        extra_us: u64,
        /// Uniform jitter bound, microseconds.
        jitter_us: u64,
    },
    /// Reset the directed link to the healthy default (this also removes
    /// any geo override on it).
    HealLink {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
    },
    /// Drop everything on the directed link.
    DropLink {
        /// Sending side.
        from: u32,
        /// Receiving side.
        to: u32,
    },
}

impl FaultKind {
    /// The scenario-file `kind` value.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Partition(_) => "partition",
            FaultKind::HealAll => "heal_all",
            FaultKind::Crash(_) => "crash",
            FaultKind::Restart(_) => "restart",
            FaultKind::Pause(_) => "pause",
            FaultKind::Resume(_) => "resume",
            FaultKind::DegradeLink { .. } => "degrade_link",
            FaultKind::HealLink { .. } => "heal_link",
            FaultKind::DropLink { .. } => "drop_link",
        }
    }
}

/// One `[[fault]]` entry: a [`FaultKind`] at a simulated instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// When the fault applies, simulated microseconds.
    pub at_us: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// `[run]` — execution horizon and verdict thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// How long past the later of (last fault, workload end) the run may
    /// extend for commits to land, microseconds.
    pub settle_us: u64,
    /// Minimum committed/expected ratio, in permille (1000 = every issued
    /// operation must commit).
    pub min_commit_permille: u32,
    /// Override for the replay analyzer's stable-window start. Defaults to
    /// the last scripted fault time; scenarios whose adversary misbehaves
    /// outside the fault script (gray, equivocate) set this explicitly.
    pub stable_from_us: Option<u64>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            settle_us: 15_000_000,
            min_commit_permille: 1000,
            stable_from_us: None,
        }
    }
}

/// `[expect]` — latency SLO ceilings folded into the verdict as
/// first-class checks. Every field is an optional inclusive ceiling in
/// simulated microseconds on an exact (nearest-rank) quantile of the
/// causal span decomposition (`qsel_obs::span`); an absent field checks
/// nothing. A declared ceiling over a run with zero attributed spans
/// **fails** — no evidence must not read green.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ExpectSpec {
    /// Ceiling on end-to-end commit-latency p50.
    pub commit_p50_us: Option<u64>,
    /// Ceiling on end-to-end commit-latency p99.
    pub commit_p99_us: Option<u64>,
    /// Ceiling on the `client_backoff` phase p99.
    pub client_backoff_p99_us: Option<u64>,
    /// Ceiling on the `request_network` phase p99.
    pub request_network_p99_us: Option<u64>,
    /// Ceiling on the `batch_wait` phase p99.
    pub batch_wait_p99_us: Option<u64>,
    /// Ceiling on the `quorum_wait` phase p99.
    pub quorum_wait_p99_us: Option<u64>,
    /// Ceiling on the `execute` phase p99.
    pub execute_p99_us: Option<u64>,
    /// Ceiling on the `reply` phase p99.
    pub reply_p99_us: Option<u64>,
    /// Ceiling on the straggler-gap (first-to-last COMMIT vote) p99.
    pub straggler_gap_p99_us: Option<u64>,
}

impl ExpectSpec {
    /// `(key, ceiling)` pairs in canonical file order — one source of
    /// truth for serialization, parsing, and verdict-check naming.
    pub fn entries(&self) -> [(&'static str, Option<u64>); 9] {
        [
            ("commit_p50_us", self.commit_p50_us),
            ("commit_p99_us", self.commit_p99_us),
            ("client_backoff_p99_us", self.client_backoff_p99_us),
            ("request_network_p99_us", self.request_network_p99_us),
            ("batch_wait_p99_us", self.batch_wait_p99_us),
            ("quorum_wait_p99_us", self.quorum_wait_p99_us),
            ("execute_p99_us", self.execute_p99_us),
            ("reply_p99_us", self.reply_p99_us),
            ("straggler_gap_p99_us", self.straggler_gap_p99_us),
        ]
    }

    /// Whether no ceiling is declared (the `[expect]` section is then
    /// omitted from the canonical form).
    pub fn is_empty(&self) -> bool {
        self.entries().iter().all(|(_, v)| v.is_none())
    }
}

/// A complete declarative scenario.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Scenario {
    /// Scenario name (top-level `name` key; also the verdict's identity).
    pub name: String,
    /// `[cluster]`.
    pub cluster: Cluster,
    /// `[workload]`.
    pub workload: Workload,
    /// `[batch]`.
    pub batch: BatchSpec,
    /// `[checkpoint]`.
    pub checkpoint: CheckpointSpec,
    /// `[adversary]`.
    pub adversary: Adversary,
    /// `[[link]]` entries, in file order.
    pub links: Vec<GeoLink>,
    /// `[[fault]]` entries, in file order (the runner sorts by time with
    /// stable ties, like [`qsel_simnet::FaultPlan`]).
    pub faults: Vec<Fault>,
    /// `[run]`.
    pub run: RunSpec,
    /// `[expect]` (omitted from the canonical form when empty).
    pub expect: ExpectSpec,
}

impl Scenario {
    /// Structural validation beyond what parsing enforces: cluster
    /// well-formedness, process ids in range, delay bounds ordered,
    /// adversary placement present when the strategy needs one.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let Cluster { n, f, .. } = self.cluster;
        let cfg = qsel_types::ClusterConfig::new(n, f)
            .map_err(|e| format!("invalid cluster: n={n}, f={f}: {e}"))?;
        // Quorum Selection rotates suspects out of the quorum, which is
        // vacuous without a fault to tolerate; enumeration runs at f = 0.
        if self.cluster.algorithm == Algorithm::Qs
            && !qsel_types::thresholds::tolerates_faults(cfg.f())
        {
            return Err(format!(
                "algorithm \"{}\" needs a fault threshold of at least 1, got f={f}",
                self.cluster.algorithm.name()
            ));
        }
        if self.name.is_empty() {
            return Err("scenario has no name".to_string());
        }
        let actors = n + self.workload.clients;
        let check_pid = |what: &str, p: u32| -> Result<(), String> {
            if p == 0 || p > actors {
                Err(format!("{what} {p} out of range 1..={actors}"))
            } else {
                Ok(())
            }
        };
        let check_replica = |what: &str, p: u32| -> Result<(), String> {
            if p == 0 || p > n {
                Err(format!("{what} {p} out of range 1..={n}"))
            } else {
                Ok(())
            }
        };
        if self.adversary.strategy.controls_a_process() {
            check_replica("adversary process", self.adversary.process)?;
        }
        for l in &self.links {
            check_pid("link endpoint", l.from)?;
            check_pid("link endpoint", l.to)?;
            if l.from == l.to {
                return Err(format!("link {} -> {} is a self-loop", l.from, l.to));
            }
            if l.min_us > l.max_us {
                return Err(format!(
                    "link {} -> {}: min_us {} exceeds max_us {}",
                    l.from, l.to, l.min_us, l.max_us
                ));
            }
        }
        for ft in &self.faults {
            match &ft.kind {
                FaultKind::Partition(group) => {
                    for &p in group {
                        check_pid("partition member", p)?;
                    }
                }
                FaultKind::Crash(p)
                | FaultKind::Restart(p)
                | FaultKind::Pause(p)
                | FaultKind::Resume(p) => check_pid("fault process", *p)?,
                FaultKind::DegradeLink { from, to, .. }
                | FaultKind::HealLink { from, to }
                | FaultKind::DropLink { from, to } => {
                    check_pid("fault link endpoint", *from)?;
                    check_pid("fault link endpoint", *to)?;
                }
                FaultKind::HealAll => {}
            }
        }
        Ok(())
    }

    /// The canonical text form. Every field is written explicitly (no
    /// default elision except the optional `stable_from_us` and the
    /// all-optional `[expect]` section), so the
    /// output is a complete, self-documenting record of the run
    /// configuration, and `parse(to_toml(s)) == s`.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "name = \"{}\"", self.name);
        let _ = writeln!(out);
        let _ = writeln!(out, "[cluster]");
        let _ = writeln!(out, "n = {}", self.cluster.n);
        let _ = writeln!(out, "f = {}", self.cluster.f);
        let _ = writeln!(out, "algorithm = \"{}\"", self.cluster.algorithm.name());
        let _ = writeln!(out);
        let _ = writeln!(out, "[workload]");
        let _ = writeln!(out, "clients = {}", self.workload.clients);
        let _ = writeln!(out, "ops_per_client = {}", self.workload.ops_per_client);
        let _ = writeln!(out, "mode = \"{}\"", self.workload.mode.name());
        let _ = writeln!(out, "retry_us = {}", self.workload.retry_us);
        let _ = writeln!(out, "interarrival_us = {}", self.workload.interarrival_us);
        let _ = writeln!(out, "tx_cost_us = {}", self.workload.tx_cost_us);
        let _ = writeln!(out);
        let _ = writeln!(out, "[batch]");
        let _ = writeln!(out, "max_size = {}", self.batch.max_size);
        let _ = writeln!(out, "max_delay_us = {}", self.batch.max_delay_us);
        let _ = writeln!(out, "pipeline_depth = {}", self.batch.pipeline_depth);
        let _ = writeln!(out);
        let _ = writeln!(out, "[checkpoint]");
        let _ = writeln!(out, "interval = {}", self.checkpoint.interval);
        let _ = writeln!(out, "archive_retain = {}", self.checkpoint.archive_retain);
        let _ = writeln!(out);
        let _ = writeln!(out, "[adversary]");
        let _ = writeln!(out, "strategy = \"{}\"", self.adversary.strategy.name());
        if let Strategy::Gray { delay_us } = self.adversary.strategy {
            let _ = writeln!(out, "delay_us = {delay_us}");
        }
        let _ = writeln!(out, "process = {}", self.adversary.process);
        let _ = writeln!(out);
        let _ = writeln!(out, "[run]");
        let _ = writeln!(out, "settle_us = {}", self.run.settle_us);
        let _ = writeln!(
            out,
            "min_commit_permille = {}",
            self.run.min_commit_permille
        );
        if let Some(s) = self.run.stable_from_us {
            let _ = writeln!(out, "stable_from_us = {s}");
        }
        if !self.expect.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "[expect]");
            for (key, v) in self.expect.entries() {
                if let Some(v) = v {
                    let _ = writeln!(out, "{key} = {v}");
                }
            }
        }
        for l in &self.links {
            let _ = writeln!(out);
            let _ = writeln!(out, "[[link]]");
            let _ = writeln!(out, "from = {}", l.from);
            let _ = writeln!(out, "to = {}", l.to);
            let _ = writeln!(out, "min_us = {}", l.min_us);
            let _ = writeln!(out, "max_us = {}", l.max_us);
            let _ = writeln!(out, "symmetric = {}", l.symmetric);
        }
        for ft in &self.faults {
            let _ = writeln!(out);
            let _ = writeln!(out, "[[fault]]");
            let _ = writeln!(out, "at_us = {}", ft.at_us);
            let _ = writeln!(out, "kind = \"{}\"", ft.kind.name());
            match &ft.kind {
                FaultKind::Partition(group) => {
                    let items: Vec<String> = group.iter().map(|p| p.to_string()).collect();
                    let _ = writeln!(out, "group = [{}]", items.join(", "));
                }
                FaultKind::HealAll => {}
                FaultKind::Crash(p)
                | FaultKind::Restart(p)
                | FaultKind::Pause(p)
                | FaultKind::Resume(p) => {
                    let _ = writeln!(out, "process = {p}");
                }
                FaultKind::DegradeLink {
                    from,
                    to,
                    extra_us,
                    jitter_us,
                } => {
                    let _ = writeln!(out, "from = {from}");
                    let _ = writeln!(out, "to = {to}");
                    let _ = writeln!(out, "extra_us = {extra_us}");
                    let _ = writeln!(out, "jitter_us = {jitter_us}");
                }
                FaultKind::HealLink { from, to } | FaultKind::DropLink { from, to } => {
                    let _ = writeln!(out, "from = {from}");
                    let _ = writeln!(out, "to = {to}");
                }
            }
        }
        out
    }
}
