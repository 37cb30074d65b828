//! When the host must wake the detector.

use qsel_simnet::{SimDuration, SimTime};

/// The poll timers a host has in flight for its
/// [`FailureDetector`](crate::FailureDetector): which wake-ups it still
/// has to arm so that [`poll`](crate::FailureDetector::poll) runs just
/// after every deadline, without arming the same instant twice.
///
/// A host asks [`PollSchedule::arm`] after every callback and calls
/// [`PollSchedule::reset`] when its process restarts. Timers are
/// de-duplicated per *instant*, not down to one earliest timer: `poll`
/// expires `deadline <= now`, so a poll armed for an expectation that has
/// since been met can still land exactly on a later expectation's deadline
/// and expire it 1µs before that expectation's own poll would. Keeping the
/// set of poll instants equal to arming on every callback keeps every
/// expiry time equal; only second and later polls at one instant are
/// dropped, and those find nothing due (whatever was expected since the
/// first has its deadline in the future).
#[derive(Debug, Default)]
pub struct PollSchedule {
    /// Instants ahead of the last `arm` with a poll timer of this
    /// incarnation in flight, ascending.
    armed: Vec<SimTime>,
}

impl PollSchedule {
    /// A schedule with no timer in flight.
    pub fn new() -> Self {
        PollSchedule::default()
    }

    /// The delay after which the host must set a poll timer, given the
    /// detector's [`next_deadline`](crate::FailureDetector::next_deadline):
    /// the poll is due 1µs past the deadline (or past `now`, for a deadline
    /// already behind). `None` when nothing is pending or a timer for that
    /// instant is already in flight.
    pub fn arm(&mut self, now: SimTime, deadline: Option<SimTime>) -> Option<SimDuration> {
        // Nothing asks for an instant up to `now` again, whether its timer
        // fired or is still held back (a paused process replays its timers
        // late, at resume).
        let behind = self.armed.partition_point(|at| *at <= now);
        self.armed.drain(..behind);
        let at = deadline?.max(now) + SimDuration::micros(1);
        let slot = self.armed.binary_search(&at).err()?;
        self.armed.insert(slot, at);
        Some(at - now)
    }

    /// The process restarted: its timers died with the old incarnation.
    pub fn reset(&mut self) {
        self.armed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn arms_each_instant_once_while_it_is_ahead() {
        let mut s = PollSchedule::new();
        assert_eq!(s.arm(t(0), None), None, "nothing pending");
        assert_eq!(s.arm(t(0), Some(t(10))), Some(SimDuration::micros(11)));
        assert_eq!(s.arm(t(3), Some(t(10))), None, "already in flight");
        assert_eq!(s.arm(t(3), Some(t(7))), Some(SimDuration::micros(5)));
        // A deadline already behind is polled 1µs from now.
        assert_eq!(s.arm(t(20), Some(t(10))), Some(SimDuration::micros(1)));
        assert_eq!(s.armed, [t(21)], "t=8 and t=11 are behind");
        assert_eq!(s.arm(t(20), Some(t(20))), None, "t=21 is still in flight");
        s.reset();
        assert_eq!(s.arm(t(20), Some(t(20))), Some(SimDuration::micros(1)));
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// A callback up to `.0` µs later asks to arm; `.1` is 0 for "nothing
        /// pending", else the deadline lies `.1 - 4` µs from then (so some
        /// are already behind).
        Arm(u64, u64),
        /// Time moves `.0` µs past the earliest timer in flight — 0: it
        /// fires on time; more: the process was paused — and every timer
        /// due by then fires.
        Fire(u64),
        /// Crash and restart: timers in flight are never delivered.
        Reset,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..4, 0u64..10).prop_map(|(dt, d)| Op::Arm(dt, d)),
            (0u64..4, 0u64..10).prop_map(|(dt, d)| Op::Arm(dt, d)),
            (0u64..4, 0u64..10).prop_map(|(dt, d)| Op::Arm(dt, d)),
            Just(Op::Fire(0)),
            (0u64..8).prop_map(Op::Fire),
            Just(Op::Reset),
        ]
    }

    /// A host as the simulator sees it: the timers it set, as a multiset
    /// of due instants, and every distinct instant it ever set one for.
    #[derive(Default)]
    struct Host {
        in_flight: Vec<SimTime>,
        instants: BTreeSet<SimTime>,
    }

    impl Host {
        fn set_timer(&mut self, now: SimTime, delay: SimDuration) {
            self.in_flight.push(now + delay);
            self.instants.insert(now + delay);
        }

        /// The timers in flight that are due after `now`, ascending.
        fn ahead(&self, now: SimTime) -> Vec<SimTime> {
            let mut ahead: Vec<SimTime> = self
                .in_flight
                .iter()
                .copied()
                .filter(|at| *at > now)
                .collect();
            ahead.sort_unstable();
            ahead
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The schedule against the policy it replaced (set a timer on
        /// every request): both hosts see the same distinct poll instants,
        /// the schedule never has two timers in flight for one instant,
        /// keeps nothing that is behind, and nothing across a restart.
        #[test]
        fn same_instants_as_always_arming(ops in proptest::collection::vec(op(), 0..120)) {
            let mut schedule = PollSchedule::new();
            let (mut deduped, mut always) = (Host::default(), Host::default());
            let mut now = t(10);
            for op in ops {
                match op {
                    Op::Arm(dt, d) => {
                        // Callbacks run in time order: none runs later
                        // than a timer still in flight.
                        now += SimDuration::micros(dt);
                        if let Some(first) = always.in_flight.iter().min() {
                            now = now.min(*first);
                        }
                        let deadline = (d > 0).then(|| t(now.as_micros() + d - 4));
                        if let Some(delay) = schedule.arm(now, deadline) {
                            deduped.set_timer(now, delay);
                        }
                        if let Some(delay) = PollSchedule::new().arm(now, deadline) {
                            always.set_timer(now, delay);
                        }
                        prop_assert_eq!(&schedule.armed, &deduped.ahead(now));
                    }
                    Op::Fire(late) => {
                        let Some(first) = always.in_flight.iter().min().copied() else {
                            continue;
                        };
                        now = first + SimDuration::micros(late);
                        deduped.in_flight.retain(|at| *at > now);
                        always.in_flight.retain(|at| *at > now);
                    }
                    Op::Reset => {
                        schedule.reset();
                        deduped.in_flight.clear();
                        always.in_flight.clear();
                        prop_assert!(schedule.armed.is_empty());
                    }
                }
                prop_assert_eq!(&deduped.instants, &always.instants);
                // In flight: the same instants, but each only once.
                let mut once = always.ahead(now);
                once.dedup();
                prop_assert_eq!(deduped.ahead(now), once);
            }
        }
    }
}
