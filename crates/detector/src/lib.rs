//! Expectation-based Byzantine failure detection (Section IV-B of the
//! paper).
//!
//! As argued by Doudou et al. and adopted by the paper, failure detection
//! under Byzantine faults cannot be application-independent. This module
//! therefore *does not know the protocol*: the application tells the
//! detector which messages it **expects** (`⟨EXPECT, P, i⟩`), reports
//! application-detected commission failures (`⟨DETECTED, i⟩`), and may
//! **cancel** outstanding expectations (`⟨CANCEL⟩`). The detector publishes
//! the set of currently suspected processes (`⟨SUSPECTED, S⟩`): every entry
//! point returns `Some(S)` when the set changed and `None` otherwise. It
//! never withholds a message, so it only borrows what it observes, and
//! `⟨DELIVER, m, i⟩` is the host dispatching `m` itself, before it handles
//! the set [`FailureDetector::on_receive`] returned for `m`.
//!
//! # Properties (paper §IV-B1)
//!
//! * **Expectation completeness** — an uncancelled expectation either gets
//!   a matching delivery or the sender is eventually suspected: enforced by
//!   deadline timers ([`FailureDetector::poll`]).
//! * **Detection completeness** — an application-reported detection pins a
//!   *permanent* suspicion.
//! * **Eventual strong accuracy** — after the network stabilizes, correct
//!   processes stop suspecting each other: achieved with adaptive per-peer
//!   timeouts that back off every time a suspicion proves false (the
//!   expected message arrives late), so that post-GST the timeout
//!   eventually exceeds the real round-trip bound.
//!
//! The detector is a sans-io state machine: the host (see `qsel::node`)
//! shows it receptions and the current time, and forwards suspicion
//! changes to its quorum-selection module.
//! [`PollSchedule`] tells the host which poll timers that takes: one per
//! distinct instant just past a deadline, however many callbacks ask.
//!
//! # Example
//!
//! ```
//! use qsel_detector::{FailureDetector, FdConfig};
//! use qsel_simnet::{SimDuration, SimTime};
//! use qsel_types::ProcessId;
//!
//! let mut fd: FailureDetector<&'static str> =
//!     FailureDetector::new(ProcessId(1), 3, FdConfig::default());
//! let t0 = SimTime::ZERO;
//! fd.expect(t0, ProcessId(2), "commit", |m| *m == "commit");
//!
//! // Nothing arrives; past the deadline p2 becomes suspected:
//! let late = t0 + SimDuration::secs(60);
//! let suspected = fd.poll(late).expect("the suspicion set changed");
//! assert!(suspected.contains(ProcessId(2)));
//!
//! // The message finally arrives: the host keeps it (and delivers it), and
//! // the suspicion is cancelled (eventual detection of repeated offenders
//! // only).
//! let msg = "commit";
//! let suspected = fd.on_receive(late, ProcessId(2), &msg);
//! assert_eq!(suspected.map(|s| s.is_empty()), Some(true));
//! assert!(!fd.is_suspected(ProcessId(2)));
//! ```

#![warn(missing_docs)]
// S2: protocol code returns typed errors instead of panicking. A
// deliberate panic carries `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod detector;
mod schedule;
mod timeout;

pub use detector::{FailureDetector, FdConfig, FdStats};
pub use schedule::PollSchedule;
pub use timeout::TimeoutPolicy;
