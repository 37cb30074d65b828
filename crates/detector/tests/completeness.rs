//! Property tests for the failure detector's §IV-B contracts, driven by
//! random operation sequences.

use proptest::prelude::*;
use qsel_detector::{FailureDetector, FdConfig};
use qsel_simnet::{SimDuration, SimTime};
use qsel_types::{ProcessId, ProcessSet};

#[derive(Clone, Debug)]
enum Op {
    /// Expect message `tag` from peer.
    Expect(u32, u8),
    /// Receive message `tag` from peer.
    Receive(u32, u8),
    /// Application-level detection of peer.
    Detected(u32),
    /// Cancel all expectations.
    Cancel,
    /// Advance time by millis and poll.
    Advance(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (2u32..=5, any::<u8>()).prop_map(|(p, t)| Op::Expect(p, t % 4)),
        (2u32..=5, any::<u8>()).prop_map(|(p, t)| Op::Receive(p, t % 4)),
        (2u32..=5u32).prop_map(Op::Detected),
        Just(Op::Cancel),
        (1u8..5).prop_map(Op::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariants maintained across arbitrary op sequences:
    /// * expectation completeness — an unmet, uncancelled expectation whose
    ///   deadline passed keeps its sender suspected;
    /// * detection completeness — detected processes stay suspected forever;
    /// * accuracy bookkeeping — suspected ⊆ detected ∪ {peers with expired
    ///   outstanding expectations}.
    #[test]
    fn detector_contracts(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut fd: FailureDetector<u8> =
            FailureDetector::new(ProcessId(1), 5, FdConfig::default());
        let mut now = SimTime::ZERO;
        let mut detected: ProcessSet = ProcessSet::new();
        // Outstanding expectations we injected: (peer, tag, deadline).
        let mut outstanding: Vec<(u32, u8, SimTime)> = Vec::new();

        for op in ops {
            match op {
                Op::Expect(p, t) => {
                    let deadline = now + fd.current_timeout(ProcessId(p));
                    fd.expect(now, ProcessId(p), "m", move |m| *m == t);
                    outstanding.push((p, t, deadline));
                }
                Op::Receive(p, t) => {
                    fd.on_receive(now, ProcessId(p), t);
                    outstanding.retain(|&(op_, ot, _)| !(op_ == p && ot == t));
                }
                Op::Detected(p) => {
                    fd.detected(now, ProcessId(p));
                    detected.insert(ProcessId(p));
                }
                Op::Cancel => {
                    fd.cancel_all(now);
                    outstanding.clear();
                }
                Op::Advance(ms) => {
                    now += SimDuration::millis(u64::from(ms));
                    fd.poll(now);
                }
            }

            let suspected = fd.suspected_set();
            // Detection completeness.
            for d in detected.iter() {
                prop_assert!(suspected.contains(d), "detected {d} not suspected");
            }
            // Expectation completeness (after the deadline has been polled).
            for &(p, _, deadline) in &outstanding {
                if deadline < now {
                    prop_assert!(
                        suspected.contains(ProcessId(p)),
                        "expired expectation on p{p} (deadline {deadline}, now {now}) not suspected"
                    );
                }
            }
            // Upper bound: no spurious members.
            for s in suspected.iter() {
                let justified = detected.contains(s)
                    || outstanding.iter().any(|&(p, _, d)| ProcessId(p) == s && d <= now);
                prop_assert!(justified, "suspicion of {s} has no cause");
            }
        }
    }

    /// The adaptive timeout is monotone non-decreasing and only grows via
    /// proven-false suspicions.
    #[test]
    fn timeouts_grow_monotonically(rounds in 1usize..10) {
        let mut fd: FailureDetector<u8> =
            FailureDetector::new(ProcessId(1), 3, FdConfig::default());
        let mut now = SimTime::ZERO;
        let mut last = fd.current_timeout(ProcessId(2));
        for _ in 0..rounds {
            fd.expect(now, ProcessId(2), "m", |m| *m == 1);
            now = now + last + SimDuration::millis(1);
            fd.poll(now);
            fd.on_receive(now, ProcessId(2), 1); // late → back off
            let cur = fd.current_timeout(ProcessId(2));
            prop_assert!(cur >= last);
            prop_assert!(cur <= last.saturating_mul(2));
            last = cur;
        }
    }
}
