//! Deterministic observability for the quorum-selection reproduction.
//!
//! Three pieces, all keyed by **simulated time** (never wall clock), so a
//! traced run stays a pure function of `(seed, FaultPlan)`:
//!
//! * [`TraceSink`] / [`TraceEvent`] — a structured event trace. Every layer
//!   of the stack (simulator, selection algorithms, failure detector,
//!   XPaxos replicas and clients) emits typed events through a cloneable
//!   sink handle. The default sink is disabled and every emission is an
//!   inlined no-op, so untraced runs keep their performance and — more
//!   importantly — their exact RNG stream.
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket histograms
//!   (commit latency, view-change duration, quorums per epoch, retry
//!   back-off) with plain-text and JSON report renderers.
//!   [`metrics::standard_metrics`] derives the standard set from a trace.
//! * [`replay`] — an offline analyzer that re-reads an exported JSONL
//!   trace and checks the paper's invariants: the Theorem 3 `f(f+1)` and
//!   Theorem 9 `3f+1` per-epoch quorum bounds, per-slot agreement across
//!   replicas, and "no delivery to a crashed incarnation".
//!
//! A fourth piece, [`Verdict`], packages the outcome of an analyzed run —
//! named pass/fail checks plus a metrics summary — as round-tripping JSON
//! for CI artifacts and league aggregation. A fifth, [`span`], rebuilds
//! each committed request's causal span from the trace and decomposes its
//! end-to-end latency into named phases ([`SpanReport`]), feeding the
//! `latency_report.json` artifact and the scenario DSL's `[expect]` SLO
//! checks.
//!
//! Timestamps are plain `u64` microseconds of simulated time: this crate
//! sits *below* `qsel-simnet` in the dependency graph (the simulator emits
//! into it), so it cannot use the simulator's `SimTime` newtype.
//!
//! # Example
//!
//! ```
//! use qsel_obs::{TraceEvent, TraceSink};
//!
//! let sink = TraceSink::unbounded();
//! sink.set_now(1_000);
//! sink.emit(|| TraceEvent::Crash { p: 2 });
//! sink.set_now(2_000);
//! sink.emit(|| TraceEvent::Restart { p: 2, incarnation: 1 });
//! let jsonl = sink.export_jsonl();
//! let records = qsel_obs::replay::parse_jsonl(&jsonl).unwrap();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[1].t, 2_000);
//! ```

#![warn(missing_docs)]

pub mod event;
mod json;
pub mod metrics;
pub mod replay;
pub mod sink;
pub mod span;
pub mod verdict;

pub use event::{TraceEvent, TraceRecord};
pub use metrics::{Histogram, MetricsRegistry};
pub use replay::{ReplayConfig, ReplayReport, Violation, ViolationKind};
pub use sink::{TraceConfig, TraceSink};
pub use span::{RequestSpan, SpanReport, PHASES};
pub use verdict::{Check, Verdict};
