//! Umbrella crate for the reproduction of *Quorum Selection for Byzantine
//! Fault Tolerance* (Leander Jehl, ICDCS 2019).
//!
//! This crate hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the implementation lives in
//! the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`qsel_types`] | process ids, cluster config, quorums, simulated signatures, SHA-256 |
//! | [`qsel_simnet`] | deterministic discrete-event network simulator |
//! | [`qsel_graph`] | independent sets, vertex covers, maximal line subgraphs |
//! | [`qsel_detector`] | the expectation-based Byzantine failure detector (§IV-B) |
//! | [`qsel`] | Algorithm 1 (Quorum Selection) and Algorithm 2 (Follower Selection) |
//! | [`qsel_xpaxos`] | the XPaxos SMR substrate with both quorum policies (§V) |
//! | [`qsel_pbft`] | PBFT-style all-to-all baseline for the message-count claim |
//! | [`qsel_adversary`] | Theorem 3/4/9 adversary games and Byzantine actors |
//! | [`qsel_obs`] | deterministic tracing, metrics, offline trace-replay bound checks |
//! | [`qsel_scenario`] | declarative scenario DSL + deterministic runner with verdicts |
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

pub mod chaos;

pub use qsel;
pub use qsel_adversary;
pub use qsel_detector;
pub use qsel_graph;
pub use qsel_obs;
pub use qsel_pbft;
pub use qsel_scenario;
pub use qsel_simnet;
pub use qsel_types;
pub use qsel_xpaxos;
