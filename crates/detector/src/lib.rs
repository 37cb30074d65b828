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
//! # Expectations as data
//!
//! The `P` of `⟨EXPECT, P, i⟩` is a key of the host's own type `E`,
//! implementing [`Expected`]: [`FailureDetector::arm`] stores it inline,
//! and [`FailureDetector::on_receive`] asks it whether a delivery is the
//! awaited message. A host names its expectations with a small enum whose
//! variants carry the fields they match on (view, slot, …), so arming one
//! allocates nothing. [`Pred`], a label plus a boxed closure, is the
//! default `E`; it exists for tests and probes, which arm it through
//! [`FailureDetector::expect`] and [`FailureDetector::expect_with_min`].
//!
//! # Example
//!
//! ```
//! use qsel_detector::{Expected, FailureDetector, FdConfig};
//! use qsel_simnet::{SimDuration, SimTime};
//! use qsel_types::ProcessId;
//!
//! enum Msg {
//!     Commit { slot: u64 },
//!     Gossip,
//! }
//!
//! #[derive(Debug)]
//! enum Expect {
//!     Commit { slot: u64 },
//! }
//!
//! impl Expected<Msg> for Expect {
//!     fn is_met_by(&self, m: &Msg) -> bool {
//!         match self {
//!             Expect::Commit { slot } => matches!(m, Msg::Commit { slot: s } if s == slot),
//!         }
//!     }
//!
//!     fn label(&self) -> &'static str {
//!         match self {
//!             Expect::Commit { .. } => "commit",
//!         }
//!     }
//! }
//!
//! let mut fd: FailureDetector<Msg, Expect> =
//!     FailureDetector::new(ProcessId(1), 3, FdConfig::default());
//! let t0 = SimTime::ZERO;
//! fd.arm(t0, ProcessId(2), SimDuration::ZERO, Expect::Commit { slot: 7 });
//!
//! // Nothing arrives; past the deadline p2 becomes suspected:
//! let late = t0 + SimDuration::secs(60);
//! let suspected = fd.poll(late).expect("the suspicion set changed");
//! assert!(suspected.contains(ProcessId(2)));
//! assert_eq!(fd.stats().expired_by_label["commit"], 1);
//!
//! // Other traffic from p2 does not meet the expectation:
//! assert_eq!(fd.on_receive(late, ProcessId(2), Msg::Gossip), None);
//! assert_eq!(fd.on_receive(late, ProcessId(2), Msg::Commit { slot: 8 }), None);
//!
//! // The message finally arrives: the host keeps it (and delivers it), and
//! // the suspicion is cancelled (eventual detection of repeated offenders
//! // only).
//! let msg = Msg::Commit { slot: 7 };
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

pub use detector::{Expected, FailureDetector, FdConfig, FdStats, Pred};
pub use schedule::PollSchedule;
pub use timeout::TimeoutPolicy;
