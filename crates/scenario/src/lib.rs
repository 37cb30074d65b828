//! Declarative scenarios: one spec file → one deterministic, replay-checked
//! run.
//!
//! The rest of the workspace exposes the pieces of an adversarial
//! experiment — cluster shape and quorum policy (`qsel` / `qsel-xpaxos`),
//! scripted faults and geo delays (`qsel-simnet`), Byzantine strategies
//! (`qsel-adversary`), batching (`qsel-xpaxos`), and offline invariant
//! checking (`qsel-obs`) — but wiring them together was ad hoc per test.
//! This crate is the QUANTAS-style composition layer:
//!
//! * [`spec`] — the [`Scenario`] value: cluster, workload, batch,
//!   adversary, geo links, fault script, run thresholds. All integer
//!   quantities; canonical text form via [`Scenario::to_toml`].
//! * [`parse`] — a dependency-free parser for that form (a small TOML
//!   subset) with line-numbered errors. Unknown sections and keys are hard
//!   errors: a typo in a fault script must not silently weaken coverage.
//! * [`runner`] — [`runner::run_scenario`]: compiles the spec onto the
//!   simulator, places the adversary, executes, replays the exported trace
//!   through the analyzer, and emits a [`qsel_obs::Verdict`]
//!   (`verdict.json`) with pass/fail per invariant plus a metrics summary.
//!
//! Determinism contract: the produced trace is a pure function of
//! `(scenario, seed)`. The named scenario library lives in `scenarios/` at
//! the repository root and runs as a CI matrix (the *scenario league*);
//! see DESIGN.md §12.

#![warn(missing_docs)]

pub mod parse;
pub mod runner;
pub mod spec;

pub use parse::parse;
pub use runner::{compile_plan, run_scenario, RunArtifacts};
pub use spec::{
    Adversary, Algorithm, BatchSpec, CheckpointSpec, Cluster, ExpectSpec, Fault, FaultKind,
    GeoLink, RunSpec, Scenario, Workload, WorkloadMode,
};
