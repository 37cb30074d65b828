//! A by-name registry of adversary strategies.
//!
//! The scenario layer (`qsel-scenario`) configures Byzantine behaviour
//! declaratively: a scenario file names a strategy and the runner
//! instantiates the matching actor. This module owns the naming so every
//! stack that mixes adversaries into a simulation — the XPaxos harness,
//! the selector-cluster harness, future runtimes — agrees on what
//! `"gray"` or `"equivocate"` means.
//!
//! A [`Strategy`] is a pure descriptor: strategy kind plus the parameters
//! the kind needs. It deliberately does *not* construct actors, because
//! actor types differ per protocol stack (an equivocating XPaxos leader
//! sends conflicting `PREPARE`s; an equivocating selector node would forge
//! `UPDATE` rows). Runners match on the descriptor and build the actor for
//! their own message type.

use std::fmt;

/// A named, parameterized adversary strategy controlling one process.
///
/// The process under adversary control is configured alongside the
/// strategy (scenario files carry a `process` key); the descriptor itself
/// is placement-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// No adversary: every process runs the honest protocol.
    None,
    /// The controlled process sends nothing at all (a repeated omission
    /// failure of everything — the "mute" processes of Section III).
    Mute,
    /// The controlled process equivocates once (conflicting proposals to
    /// different followers), then goes quiet. Models the commission
    /// failure the detector's `⟨DETECTED⟩` path must catch.
    Equivocate,
    /// Gray failure: the controlled process runs the honest protocol but
    /// handles every incoming message `delay_us` microseconds late. It is
    /// slow but not silent — its timer-driven traffic (heartbeats) stays
    /// prompt, so naive liveness detectors see a healthy peer while
    /// request processing crawls.
    Gray {
        /// Added processing delay per incoming message, in microseconds.
        delay_us: u64,
    },
    /// The controlled process runs the honest protocol but tampers with
    /// every state-transfer chunk it serves (flipping batch contents while
    /// keeping the claimed slots and proofs). A recovering replica must
    /// reject the chunks by MMR verification and fail over to another
    /// donor (verify before use: nothing from a chunk reaches the log
    /// before its proof checks).
    CorruptTransfer,
}

impl Strategy {
    /// Every registered strategy name, for error messages and docs.
    pub const NAMES: [&'static str; 5] = ["none", "mute", "equivocate", "gray", "corrupt-transfer"];

    /// The registry name of this strategy.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::None => "none",
            Strategy::Mute => "mute",
            Strategy::Equivocate => "equivocate",
            Strategy::Gray { .. } => "gray",
            Strategy::CorruptTransfer => "corrupt-transfer",
        }
    }

    /// Looks up a strategy by registry name. `delay_us` is required by
    /// `"gray"` and must be absent for every other name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names or mismatched
    /// parameters (the scenario parser attaches line numbers to it).
    pub fn from_name(name: &str, delay_us: Option<u64>) -> Result<Strategy, String> {
        match (name, delay_us) {
            ("none", None) => Ok(Strategy::None),
            ("mute", None) => Ok(Strategy::Mute),
            ("equivocate", None) => Ok(Strategy::Equivocate),
            ("gray", Some(delay_us)) => Ok(Strategy::Gray { delay_us }),
            ("gray", None) => Err("strategy \"gray\" requires delay_us".to_string()),
            ("corrupt-transfer", None) => Ok(Strategy::CorruptTransfer),
            ("none" | "mute" | "equivocate" | "corrupt-transfer", Some(_)) => {
                Err(format!("strategy \"{name}\" takes no delay_us"))
            }
            (other, _) => Err(format!(
                "unknown adversary strategy \"{other}\" (known: {})",
                Strategy::NAMES.join(", ")
            )),
        }
    }

    /// Whether this strategy replaces an honest process with an
    /// adversarial actor (i.e. a `process` placement is required).
    pub fn controls_a_process(&self) -> bool {
        !matches!(self, Strategy::None)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Gray { delay_us } => write!(f, "gray(delay_us={delay_us})"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_lookup() {
        assert_eq!(Strategy::from_name("none", None), Ok(Strategy::None));
        assert_eq!(Strategy::from_name("mute", None), Ok(Strategy::Mute));
        assert_eq!(
            Strategy::from_name("equivocate", None),
            Ok(Strategy::Equivocate)
        );
        assert_eq!(
            Strategy::from_name("gray", Some(2_000)),
            Ok(Strategy::Gray { delay_us: 2_000 })
        );
        assert_eq!(
            Strategy::from_name("corrupt-transfer", None),
            Ok(Strategy::CorruptTransfer)
        );
        for s in [
            Strategy::None,
            Strategy::Mute,
            Strategy::Equivocate,
            Strategy::Gray { delay_us: 1 },
            Strategy::CorruptTransfer,
        ] {
            assert!(Strategy::NAMES.contains(&s.name()));
        }
    }

    #[test]
    fn unknown_name_is_rejected_with_known_list() {
        let err = Strategy::from_name("warp", None).unwrap_err();
        assert!(err.contains("unknown adversary strategy"), "{err}");
        assert!(err.contains("equivocate"), "{err}");
    }

    #[test]
    fn parameter_mismatches_are_rejected() {
        assert!(Strategy::from_name("gray", None).is_err());
        assert!(Strategy::from_name("mute", Some(5)).is_err());
        assert!(Strategy::from_name("corrupt-transfer", Some(5)).is_err());
    }

    #[test]
    fn only_none_controls_no_process() {
        assert!(!Strategy::None.controls_a_process());
        assert!(Strategy::Mute.controls_a_process());
        assert!(Strategy::Equivocate.controls_a_process());
        assert!(Strategy::Gray { delay_us: 1 }.controls_a_process());
        assert!(Strategy::CorruptTransfer.controls_a_process());
    }
}
