//! The failure-detector state machine.

use std::borrow::Borrow;
use std::fmt;
use std::marker::PhantomData;

use qsel_obs::{TraceEvent, TraceSink};
use qsel_simnet::{SimDuration, SimTime};
use qsel_types::{ProcessId, ProcessSet};

use crate::timeout::TimeoutPolicy;

/// Configuration of a [`FailureDetector`].
#[derive(Clone, Debug)]
pub struct FdConfig {
    /// Initial expectation timeout Δ per peer.
    pub initial_timeout: SimDuration,
    /// Upper bound for the adaptive timeout.
    pub timeout_cap: SimDuration,
    /// Whether late fulfilment backs off the peer's timeout. Disabling
    /// this (ablation) loses eventual strong accuracy on
    /// eventually-synchronous networks — see experiment E-ABL.
    pub adaptive: bool,
}

impl Default for FdConfig {
    /// 1ms initial timeout, 60s cap — suitable for the default LAN-like
    /// delay model of `qsel-simnet` (50–150µs per hop).
    fn default() -> Self {
        FdConfig {
            initial_timeout: SimDuration::millis(1),
            timeout_cap: SimDuration::secs(60),
            adaptive: true,
        }
    }
}

/// Counters describing detector behaviour (used by experiment E9).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FdStats {
    /// Expirations per expectation label (diagnosis aid).
    pub expired_by_label: std::collections::BTreeMap<&'static str, u64>,
    /// The first expirations, with time / peer / label (diagnosis aid;
    /// capped at 256 entries).
    pub expiry_log: Vec<(SimTime, ProcessId, &'static str)>,
    /// Expectations issued.
    pub expectations_issued: u64,
    /// Expectations satisfied by a matching delivery before their deadline.
    pub expectations_met: u64,
    /// Expectations that expired (each expiry raises / keeps a suspicion).
    pub expectations_expired: u64,
    /// Expectations removed by `⟨CANCEL⟩`.
    pub expectations_cancelled: u64,
    /// Suspicions raised (a peer entering the suspected set).
    pub suspicions_raised: u64,
    /// Suspicions cancelled (a peer leaving the suspected set — a false or
    /// stale suspicion, triggering timeout back-off).
    pub suspicions_cancelled: u64,
    /// Permanent detections reported by the application.
    pub detections: u64,
}

/// The `P` of `⟨EXPECT, P, i⟩` as data: the host names the message it
/// waits for with a key of its own type, and the detector asks the key
/// whether each delivery from `i` is that message. Plain data keys cost
/// no allocation per expectation; [`Pred`] adapts a closure.
pub trait Expected<M> {
    /// Whether `m` is a message this expectation waits for.
    fn is_met_by(&self, m: &M) -> bool;
    /// Names the expectation in [`FdStats::expired_by_label`] and
    /// [`FdStats::expiry_log`].
    fn label(&self) -> &'static str;
}

/// The closure form of [`Expected`]: a label and a boxed predicate, one
/// allocation per expectation. It is the default key of
/// [`FailureDetector`] and exists for tests and probes; protocol hosts
/// supply a data key instead.
pub struct Pred<M> {
    label: &'static str,
    pred: Box<dyn Fn(&M) -> bool>,
}

impl<M> Pred<M> {
    /// An expectation named `label`, met by any message satisfying `pred`.
    pub fn new(label: &'static str, pred: impl Fn(&M) -> bool + 'static) -> Self {
        Pred {
            label,
            pred: Box::new(pred),
        }
    }
}

impl<M> Expected<M> for Pred<M> {
    fn is_met_by(&self, m: &M) -> bool {
        (self.pred)(m)
    }

    fn label(&self) -> &'static str {
        self.label
    }
}

impl<M> fmt::Debug for Pred<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Pred").field(&self.label).finish()
    }
}

#[derive(Debug)]
struct Expectation<E> {
    from: ProcessId,
    deadline: SimTime,
    expired: bool,
    key: E,
}

/// The failure-detector module of one process (Fig. 1 of the paper).
///
/// See the [crate documentation](crate) for the event model and an example.
pub struct FailureDetector<M, E = Pred<M>> {
    me: ProcessId,
    /// Outstanding expectations in the order they were armed, which is
    /// the order expirations are logged in.
    expectations: Vec<Expectation<E>>,
    /// The earliest deadline among unexpired expectations, kept equal to
    /// [`FailureDetector::scan_deadline`] by every mutator: lowered when an
    /// expectation is issued, rescanned only when the expectation holding
    /// it is met, expires or is cancelled.
    next_deadline: Option<SimTime>,
    timeouts: Vec<TimeoutPolicy>,
    adaptive: bool,
    detected: ProcessSet,
    last_published: ProcessSet,
    stats: FdStats,
    trace: TraceSink,
    /// The message type `E` is matched against.
    msg: PhantomData<fn(&M)>,
}

impl<M, E: Expected<M>> FailureDetector<M, E> {
    /// Creates the detector for process `me` in a cluster of `n` processes.
    pub fn new(me: ProcessId, n: u32, cfg: FdConfig) -> Self {
        FailureDetector {
            me,
            expectations: Vec::new(),
            next_deadline: None,
            timeouts: (0..n)
                .map(|_| TimeoutPolicy::new(cfg.initial_timeout, cfg.timeout_cap))
                .collect(),
            adaptive: cfg.adaptive,
            detected: ProcessSet::new(),
            last_published: ProcessSet::new(),
            stats: FdStats::default(),
            trace: TraceSink::disabled(),
            msg: PhantomData,
        }
    }

    /// Installs a trace sink (typically a clone of the simulation's, so
    /// events carry the ambient simulated time).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The owning process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// `⟨EXPECT, P, i⟩` — the application expects a message that meets
    /// `key` from `from`. The deadline is `now` plus the current adaptive
    /// timeout for `from`, floored at `min_timeout`. Use the floor for
    /// expectations whose fulfilment spans a multi-round sub-protocol
    /// (e.g. a view change), where the per-hop adaptive timeout would
    /// violate the §IV-B accuracy requirement of only expecting what a
    /// correct process sends within two communication rounds.
    pub fn arm(&mut self, now: SimTime, from: ProcessId, min_timeout: SimDuration, key: E) {
        self.stats.expectations_issued += 1;
        let timeout = self.timeouts[from.index()].current().max(min_timeout);
        let deadline = now + timeout;
        self.next_deadline = Some(self.next_deadline.map_or(deadline, |d| d.min(deadline)));
        self.expectations.push(Expectation {
            from,
            deadline,
            expired: false,
            key,
        });
    }

    /// `⟨CANCEL⟩` — drops all outstanding expectations (met or not) and
    /// retracts the suspicions they caused. Expired expectations whose
    /// message never arrived do *not* back off the timeout (nothing proved
    /// the suspicion false). Returns the new `⟨SUSPECTED⟩` set if it
    /// changed.
    pub fn cancel_all(&mut self, _now: SimTime) -> Option<ProcessSet> {
        self.stats.expectations_cancelled += self.expectations.len() as u64;
        self.expectations.clear();
        self.next_deadline = None;
        self.publish_if_changed()
    }

    /// `⟨RECEIVE, m, i⟩` — a correctly authenticated message arrived from
    /// `from`. Resolves matching expectations and retracts suspicions they
    /// caused; returns the new `⟨SUSPECTED⟩` set if it changed. The
    /// detector never withholds a message, so `⟨DELIVER, m, i⟩` is the
    /// host dispatching `msg` itself — before it handles the returned set.
    /// A match for an *expired* expectation is a late message: the
    /// suspicion was false, so the timeout for `from` backs off. An on-time
    /// match feeds [`TimeoutPolicy::record_success`], letting a timeout
    /// inflated by pre-GST chaos decay back toward its floor once the peer
    /// proves responsive again.
    pub fn on_receive(
        &mut self,
        _now: SimTime,
        from: ProcessId,
        msg: impl Borrow<M>,
    ) -> Option<ProcessSet> {
        let msg = msg.borrow();
        let mut late_match = false;
        let mut met = 0u64;
        let mut met_earliest = false;
        let earliest = self.next_deadline;
        self.expectations.retain(|e| {
            if e.from == from && e.key.is_met_by(msg) {
                if e.expired {
                    late_match = true;
                } else if Some(e.deadline) == earliest {
                    met_earliest = true;
                }
                met += 1;
                false
            } else {
                true
            }
        });
        self.stats.expectations_met += met;
        if met_earliest {
            self.next_deadline = self.scan_deadline();
        }
        if self.adaptive {
            if late_match {
                self.timeouts[from.index()].back_off();
            } else if met > 0 {
                self.timeouts[from.index()].record_success();
            }
        }
        self.publish_if_changed()
    }

    /// Advances time: marks expectations past their deadline as expired and
    /// returns the new suspicion set if it changed. The host should call
    /// this at (or after) [`FailureDetector::next_deadline`].
    pub fn poll(&mut self, now: SimTime) -> Option<ProcessSet> {
        // Nothing is due: no expectation expires, and every mutator has
        // already published its own change, so there is nothing to report.
        if self.next_deadline.is_none_or(|d| d > now) {
            return None;
        }
        let mut earliest = None;
        for e in &mut self.expectations {
            if e.expired {
                continue;
            }
            if e.deadline <= now {
                e.expired = true;
                self.stats.expectations_expired += 1;
                let label = e.key.label();
                *self.stats.expired_by_label.entry(label).or_insert(0) += 1;
                if self.stats.expiry_log.len() < 256 {
                    self.stats.expiry_log.push((now, e.from, label));
                }
            } else if earliest.is_none_or(|d| e.deadline < d) {
                earliest = Some(e.deadline);
            }
        }
        self.next_deadline = earliest;
        self.publish_if_changed()
    }

    /// `poll` as it was before the deadline was cached: visits every
    /// expectation and always re-derives the suspicion set. Test oracle.
    #[cfg(test)]
    fn poll_scanning(&mut self, now: SimTime) -> Option<ProcessSet> {
        for e in &mut self.expectations {
            if !e.expired && e.deadline <= now {
                e.expired = true;
                self.stats.expectations_expired += 1;
                let label = e.key.label();
                *self.stats.expired_by_label.entry(label).or_insert(0) += 1;
                if self.stats.expiry_log.len() < 256 {
                    self.stats.expiry_log.push((now, e.from, label));
                }
            }
        }
        self.next_deadline = self.scan_deadline();
        self.publish_if_changed()
    }

    /// `⟨DETECTED, i⟩` — the application found proof that `who` is faulty
    /// (commission failure); `who` is suspected permanently (detection
    /// completeness). Returns the new suspicion set if it changed.
    pub fn detected(&mut self, _now: SimTime, who: ProcessId) -> Option<ProcessSet> {
        if self.detected.insert(who) {
            self.stats.detections += 1;
        }
        self.publish_if_changed()
    }

    /// The earliest outstanding expectation deadline, if any — the next
    /// instant at which [`FailureDetector::poll`] could change the
    /// suspicion set.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.next_deadline
    }

    /// [`FailureDetector::next_deadline`] recomputed from the expectations.
    fn scan_deadline(&self) -> Option<SimTime> {
        self.expectations
            .iter()
            .filter(|e| !e.expired)
            .map(|e| e.deadline)
            .min()
    }

    /// The current suspicion set: permanently detected processes plus every
    /// peer with an expired outstanding expectation.
    pub fn suspected_set(&self) -> ProcessSet {
        let mut s = self.detected;
        for e in &self.expectations {
            if e.expired {
                s.insert(e.from);
            }
        }
        s
    }

    /// Whether `p` is currently suspected.
    pub fn is_suspected(&self, p: ProcessId) -> bool {
        self.suspected_set().contains(p)
    }

    /// Number of outstanding (uncancelled, unmet) expectations.
    pub fn pending_expectations(&self) -> usize {
        self.expectations.len()
    }

    /// The adaptive timeout currently applied to `peer`.
    pub fn current_timeout(&self, peer: ProcessId) -> SimDuration {
        self.timeouts[peer.index()].current()
    }

    /// Behaviour counters.
    pub fn stats(&self) -> FdStats {
        self.stats.clone()
    }

    /// `⟨SUSPECTED, S⟩`: the complete new set, if it differs from the last
    /// one published.
    fn publish_if_changed(&mut self) -> Option<ProcessSet> {
        let now_set = self.suspected_set();
        if now_set == self.last_published {
            return None;
        }
        let raised = now_set.difference(&self.last_published).len() as u64;
        let cancelled = self.last_published.difference(&now_set).len() as u64;
        self.stats.suspicions_raised += raised;
        self.stats.suspicions_cancelled += cancelled;
        self.last_published = now_set;
        self.trace.emit(|| TraceEvent::SuspicionChanged {
            p: self.me.0,
            suspected: now_set.iter().map(|p| p.0).collect(),
        });
        Some(now_set)
    }
}

impl<M> FailureDetector<M, Pred<M>> {
    /// [`FailureDetector::arm`] with a [`Pred`] key and no timeout floor.
    pub fn expect(
        &mut self,
        now: SimTime,
        from: ProcessId,
        label: &'static str,
        pred: impl Fn(&M) -> bool + 'static,
    ) {
        self.arm(now, from, SimDuration::ZERO, Pred::new(label, pred));
    }

    /// [`FailureDetector::arm`] with a [`Pred`] key.
    pub fn expect_with_min(
        &mut self,
        now: SimTime,
        from: ProcessId,
        min_timeout: SimDuration,
        label: &'static str,
        pred: impl Fn(&M) -> bool + 'static,
    ) {
        self.arm(now, from, min_timeout, Pred::new(label, pred));
    }
}

impl<M, E: Expected<M> + fmt::Debug> fmt::Debug for FailureDetector<M, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailureDetector")
            .field("me", &self.me)
            .field("expectations", &self.expectations)
            .field("detected", &self.detected)
            .field("suspected", &self.suspected_set())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Fd = FailureDetector<&'static str>;

    fn fd() -> Fd {
        FailureDetector::new(ProcessId(1), 4, FdConfig::default())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(ms)
    }

    #[test]
    fn delivery_without_expectation() {
        let mut fd = fd();
        assert_eq!(fd.on_receive(t(0), ProcessId(2), "hello"), None);
        assert!(fd.suspected_set().is_empty());
    }

    #[test]
    fn expectation_met_in_time() {
        let mut fd = fd();
        fd.expect(t(0), ProcessId(2), "commit", |m| *m == "commit");
        assert_eq!(fd.pending_expectations(), 1);
        assert_eq!(fd.on_receive(t(0), ProcessId(2), "commit"), None);
        assert_eq!(fd.pending_expectations(), 0);
        assert_eq!(fd.stats().expectations_met, 1);
        assert_eq!(fd.poll(t(1000)), None);
        assert!(fd.suspected_set().is_empty());
    }

    #[test]
    fn non_matching_message_does_not_fulfil() {
        let mut fd = fd();
        fd.expect(t(0), ProcessId(2), "commit", |m| *m == "commit");
        fd.on_receive(t(0), ProcessId(2), "gossip");
        assert_eq!(fd.pending_expectations(), 1);
        // Matching message from the wrong sender does not fulfil either:
        fd.on_receive(t(0), ProcessId(3), "commit");
        assert_eq!(fd.pending_expectations(), 1);
    }

    #[test]
    fn expectation_completeness_suspects_on_timeout() {
        let mut fd = fd();
        fd.expect(t(0), ProcessId(2), "commit", |m| *m == "commit");
        // Before the deadline: no suspicion.
        assert_eq!(fd.poll(t(0)), None);
        // After the deadline (default initial timeout 1ms):
        let set = fd.poll(t(2)).expect("the suspicion set changed");
        assert!(set.contains(ProcessId(2)));
        assert_eq!(fd.stats().expectations_expired, 1);
        assert_eq!(fd.stats().suspicions_raised, 1);
    }

    #[test]
    fn late_message_cancels_suspicion_and_backs_off() {
        let mut fd = fd();
        let before = fd.current_timeout(ProcessId(2));
        fd.expect(t(0), ProcessId(2), "commit", |m| *m == "commit");
        fd.poll(t(2));
        assert!(fd.is_suspected(ProcessId(2)));
        let cleared = fd.on_receive(t(3), ProcessId(2), "commit");
        assert_eq!(cleared, Some(ProcessSet::new()));
        assert!(fd.current_timeout(ProcessId(2)) > before, "timeout backed off");
        assert_eq!(fd.stats().suspicions_cancelled, 1);
    }

    #[test]
    fn eventual_detection_raise_cancel_cycle() {
        // A peer that is repeatedly late is suspected and un-suspected over
        // and over (eventual detection), with growing timeouts.
        let mut fd = fd();
        let mut raised = 0;
        let mut clock = t(0);
        for _ in 0..5 {
            fd.expect(clock, ProcessId(3), "hb", |m| *m == "hb");
            let deadline = fd.next_deadline().unwrap();
            clock = deadline + SimDuration::millis(1);
            raised += usize::from(fd.poll(clock).is_some());
            fd.on_receive(clock, ProcessId(3), "hb");
        }
        assert_eq!(raised, 5);
        assert_eq!(fd.stats().suspicions_raised, 5);
        assert_eq!(fd.stats().suspicions_cancelled, 5);
        // Timeout doubled five times: 1ms → 32ms.
        assert_eq!(fd.current_timeout(ProcessId(3)), SimDuration::millis(32));
    }

    #[test]
    fn detection_is_permanent() {
        let mut fd = fd();
        assert!(fd.detected(t(0), ProcessId(4)).is_some());
        // Deliveries do not clear it; cancel does not clear it.
        fd.on_receive(t(1), ProcessId(4), "anything");
        fd.cancel_all(t(1));
        assert!(fd.is_suspected(ProcessId(4)));
        // Re-detection is idempotent.
        assert_eq!(fd.detected(t(2), ProcessId(4)), None);
        assert_eq!(fd.stats().detections, 1);
    }

    #[test]
    fn cancel_clears_expectations_and_suspicions() {
        let mut fd = fd();
        fd.expect(t(0), ProcessId(2), "a", |m| *m == "a");
        fd.expect(t(0), ProcessId(3), "b", |m| *m == "b");
        fd.poll(t(5));
        assert_eq!(fd.suspected_set().len(), 2);
        assert_eq!(fd.cancel_all(t(5)), Some(ProcessSet::new()));
        assert_eq!(fd.pending_expectations(), 0);
        assert_eq!(fd.stats().expectations_cancelled, 2);
        // Cancel without proof of falseness must not back off timeouts.
        assert_eq!(fd.current_timeout(ProcessId(2)), SimDuration::millis(1));
    }

    #[test]
    fn next_deadline_tracks_earliest() {
        let mut fd = fd();
        assert_eq!(fd.next_deadline(), None);
        fd.expect(t(0), ProcessId(2), "a", |m| *m == "a");
        fd.expect(t(5), ProcessId(3), "b", |m| *m == "b");
        assert_eq!(fd.next_deadline(), Some(t(1)));
        fd.poll(t(2)); // first expires
        assert_eq!(fd.next_deadline(), Some(t(6)));
    }

    #[test]
    fn multiple_expectations_same_peer() {
        let mut fd = fd();
        fd.expect(t(0), ProcessId(2), "a", |m| *m == "a");
        fd.expect(t(0), ProcessId(2), "b", |m| *m == "b");
        fd.poll(t(2));
        assert!(fd.is_suspected(ProcessId(2)));
        // Meeting only one of the two keeps the suspicion (the other is
        // still outstanding and expired).
        assert_eq!(fd.on_receive(t(3), ProcessId(2), "a"), None);
        assert!(fd.is_suspected(ProcessId(2)));
        // Meeting the second clears it.
        let cleared = fd.on_receive(t(3), ProcessId(2), "b");
        assert_eq!(cleared, Some(ProcessSet::new()));
        assert!(!fd.is_suspected(ProcessId(2)));
    }

    #[test]
    fn one_message_can_meet_multiple_expectations() {
        let mut fd = fd();
        fd.expect(t(0), ProcessId(2), "any", |_| true);
        fd.expect(t(0), ProcessId(2), "exact", |m| *m == "x");
        fd.on_receive(t(0), ProcessId(2), "x");
        assert_eq!(fd.pending_expectations(), 0);
        assert_eq!(fd.stats().expectations_met, 2);
    }

    mod cached_deadline {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            Expect(u32, u8),
            ExpectMin(u32, u8, u64),
            Receive(u32, u8),
            /// Advance the clock by this many 250µs quarters, then poll —
            /// zero re-polls the same instant, four lands exactly on an
            /// initial 1ms deadline.
            Poll(u64),
            Cancel,
            Detected(u32),
        }

        /// The data key the closures `|x| *x == m` of `Op::Expect` and
        /// `Op::ExpectMin` stand for, with their labels.
        #[derive(Debug)]
        enum Key {
            M(u8),
            Min(u8),
        }

        impl Expected<u8> for Key {
            fn is_met_by(&self, m: &u8) -> bool {
                match self {
                    Key::M(want) | Key::Min(want) => m == want,
                }
            }

            fn label(&self) -> &'static str {
                match self {
                    Key::M(_) => "m",
                    Key::Min(_) => "min",
                }
            }
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (2u32..=4, 0u8..3).prop_map(|(p, m)| Op::Expect(p, m)),
                (2u32..=4, 0u8..3, 0u64..6).prop_map(|(p, m, q)| Op::ExpectMin(p, m, q)),
                (2u32..=4, 0u8..3).prop_map(|(p, m)| Op::Receive(p, m)),
                (2u32..=4, 0u8..3).prop_map(|(p, m)| Op::Receive(p, m)),
                (0u64..7).prop_map(Op::Poll),
                (0u64..7).prop_map(Op::Poll),
                Just(Op::Cancel),
                (2u32..=4).prop_map(Op::Detected),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Three detectors take the same operations. One polls through
            /// the cached deadline, one through the scan it replaced, and one
            /// arms data keys instead of closures. After every step the cache
            /// equals a fresh scan, and outputs, stats and
            /// `suspicion_changed` records never differ.
            #[test]
            fn cache_equals_scan_and_poll_equals_scanning_poll(
                ops in proptest::collection::vec(op(), 0..80),
            ) {
                let sinks = [TraceSink::unbounded(), TraceSink::unbounded(), TraceSink::unbounded()];
                let mut cached: FailureDetector<u8> =
                    FailureDetector::new(ProcessId(1), 4, FdConfig::default());
                let mut scanned: FailureDetector<u8> =
                    FailureDetector::new(ProcessId(1), 4, FdConfig::default());
                let mut keyed: FailureDetector<u8, Key> =
                    FailureDetector::new(ProcessId(1), 4, FdConfig::default());
                cached.set_trace_sink(sinks[0].clone());
                scanned.set_trace_sink(sinks[1].clone());
                keyed.set_trace_sink(sinks[2].clone());
                let mut now = SimTime::ZERO;
                for op in ops {
                    let quarter = SimDuration::micros(250);
                    let (a, b, c) = match op {
                        Op::Expect(p, m) => {
                            cached.expect(now, ProcessId(p), "m", move |x| *x == m);
                            scanned.expect(now, ProcessId(p), "m", move |x| *x == m);
                            keyed.arm(now, ProcessId(p), SimDuration::ZERO, Key::M(m));
                            (None, None, None)
                        }
                        Op::ExpectMin(p, m, q) => {
                            let min = quarter.saturating_mul(q);
                            cached.expect_with_min(now, ProcessId(p), min, "min", move |x| *x == m);
                            scanned.expect_with_min(now, ProcessId(p), min, "min", move |x| *x == m);
                            keyed.arm(now, ProcessId(p), min, Key::Min(m));
                            (None, None, None)
                        }
                        Op::Receive(p, m) => (
                            cached.on_receive(now, ProcessId(p), m),
                            scanned.on_receive(now, ProcessId(p), m),
                            keyed.on_receive(now, ProcessId(p), m),
                        ),
                        Op::Poll(quarters) => {
                            now += quarter.saturating_mul(quarters);
                            (cached.poll(now), scanned.poll_scanning(now), keyed.poll(now))
                        }
                        Op::Cancel => (
                            cached.cancel_all(now),
                            scanned.cancel_all(now),
                            keyed.cancel_all(now),
                        ),
                        Op::Detected(p) => (
                            cached.detected(now, ProcessId(p)),
                            scanned.detected(now, ProcessId(p)),
                            keyed.detected(now, ProcessId(p)),
                        ),
                    };
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(a, c);
                    prop_assert_eq!(cached.next_deadline(), cached.scan_deadline());
                    prop_assert_eq!(cached.next_deadline(), scanned.next_deadline());
                    prop_assert_eq!(cached.next_deadline(), keyed.next_deadline());
                    prop_assert_eq!(cached.suspected_set(), scanned.suspected_set());
                    prop_assert_eq!(cached.suspected_set(), keyed.suspected_set());
                    prop_assert_eq!(cached.stats(), scanned.stats());
                    prop_assert_eq!(cached.stats(), keyed.stats());
                }
                let [cached_sink, scanned_sink, keyed_sink] = sinks;
                prop_assert_eq!(cached_sink.export_jsonl(), scanned_sink.export_jsonl());
                prop_assert_eq!(cached_sink.export_jsonl(), keyed_sink.export_jsonl());
            }
        }
    }

    #[test]
    fn debug_formatting_is_nonempty() {
        let mut fd = fd();
        fd.expect(t(0), ProcessId(2), "commit", |m| *m == "commit");
        let dbg = format!("{fd:?}");
        assert!(dbg.contains("commit"));
        assert!(dbg.contains("FailureDetector"));
    }
}
