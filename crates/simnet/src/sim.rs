//! The simulation driver.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qsel_obs::{TraceEvent, TraceSink};
use qsel_types::ProcessId;

use crate::delay::DelayModel;
use crate::event::{EventKey, EventKind, Slab, TimerId};
use crate::fault::{FaultEvent, FaultPlan};
use crate::time::{SimDuration, SimTime};

/// A protocol participant driven by the simulator.
///
/// Implementations are sans-io state machines: they never block, never read
/// clocks other than [`Context::now`], and emit all effects through the
/// [`Context`]. Byzantine participants are just `Actor` implementations
/// that deviate from the protocol.
pub trait Actor<M> {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Context<'_, M>);

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: M);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerId);

    /// Called when the process restarts after a benign crash
    /// ([`Simulation::restart`]). The actor keeps its pre-crash state
    /// (crash-recovery with stable storage) but all timers armed before the
    /// crash are gone — implementations should re-arm periodic timers and
    /// re-synchronize with peers here. Defaults to doing nothing.
    fn on_recover(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }
}

/// The interface through which an [`Actor`] interacts with the world.
#[derive(Debug)]
pub struct Context<'a, M> {
    me: ProcessId,
    now: SimTime,
    sends: &'a mut Vec<(ProcessId, M)>,
    timers: &'a mut Vec<(SimDuration, TimerId)>,
}

impl<M> Context<'_, M> {
    /// The id of the acting process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` over the (possibly faulty) network. Self-sends
    /// are allowed and also travel through the network.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Sends `msg` to every id in `targets`.
    pub fn send_all<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
        M: Clone,
    {
        for to in targets {
            self.sends.push((to, msg.clone()));
        }
    }

    /// Requests a timer callback `after` from now, tagged with `id`.
    pub fn set_timer(&mut self, after: SimDuration, id: TimerId) {
        self.timers.push((after, id));
    }
}

/// Static simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of actors (ids `p_1, …, p_k`; may exceed the protocol's `n`,
    /// e.g. for clients).
    pub actors: u32,
    /// RNG seed; every run with the same seed, config and actor behaviour
    /// is identical.
    pub seed: u64,
    /// Default link delay model.
    pub delay: DelayModel,
    /// Enforce per-link FIFO delivery (Section VIII of the paper assumes
    /// FIFO order between correct processes).
    pub fifo: bool,
    /// Per-message egress serialization cost: a sender's NIC transmits one
    /// message every `tx_cost`, so a burst of sends queues at the sender
    /// before the link delay even starts. `ZERO` (the default) disables
    /// the model entirely — no state is consulted and no RNG is drawn, so
    /// existing seeded runs are unchanged. A non-zero cost makes message
    /// *count* (not just latency) visible in simulated time, which is what
    /// batching experiments measure.
    pub tx_cost: SimDuration,
    /// Safety valve: `run_to_quiescence` panics after this many steps.
    pub max_steps: u64,
}

impl SimConfig {
    /// A configuration with `actors` actors and the default delay model.
    pub fn new(actors: u32, seed: u64) -> Self {
        SimConfig {
            actors,
            seed,
            delay: DelayModel::default(),
            fifo: true,
            tx_cost: SimDuration::ZERO,
            max_steps: 20_000_000,
        }
    }

    /// Replaces the delay model.
    #[must_use]
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Enables or disables FIFO links.
    #[must_use]
    pub fn with_fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Sets the per-message egress serialization cost ([`SimConfig::tx_cost`]).
    #[must_use]
    pub fn with_tx_cost(mut self, tx_cost: SimDuration) -> Self {
        self.tx_cost = tx_cost;
        self
    }
}

/// Fault state of one directed link.
#[derive(Clone, Debug, Default)]
pub struct LinkState {
    /// Drop every message on this link (a repeated omission failure on an
    /// individual link, Section II).
    pub drop_all: bool,
    /// Drop each message independently with this probability.
    pub drop_prob: f64,
    /// Extra delay added to every message (a timing failure on an
    /// individual link).
    pub extra_delay: SimDuration,
    /// Additional per-message uniform random delay in `[0, jitter]`
    /// (a bursty timing failure).
    pub jitter: SimDuration,
    /// Deliver each message twice with this probability; the duplicate
    /// takes an independently sampled delay.
    pub dup_prob: f64,
    /// With this probability a message is held back past later traffic on
    /// the same link (it skips the FIFO floor and takes extra sampled
    /// delay), modelling out-of-order delivery on an otherwise FIFO link.
    pub reorder_prob: f64,
    /// Override the default delay model for this link.
    pub delay_override: Option<DelayModel>,
}

/// A healthy link, equal to `LinkState::default()`: what every entry of
/// the link table stands for until the first link fault materializes it.
const HEALTHY_LINK: LinkState = LinkState {
    drop_all: false,
    drop_prob: 0.0,
    extra_delay: SimDuration::ZERO,
    jitter: SimDuration::ZERO,
    dup_prob: 0.0,
    reorder_prob: 0.0,
    delay_override: None,
};

/// Aggregate network statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network by actors.
    pub messages_sent: u64,
    /// Messages delivered to a live actor.
    pub messages_delivered: u64,
    /// Messages dropped by link faults or crashed receivers.
    pub messages_dropped: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Network-created duplicate deliveries ([`LinkState::dup_prob`]).
    /// Duplicates are not counted in `messages_sent`, so `delivered` may
    /// exceed `sent` on duplicating links.
    pub messages_duplicated: u64,
    /// Messages held past later traffic ([`LinkState::reorder_prob`]).
    pub messages_reordered: u64,
    /// Timer callbacks discarded because their process restarted after
    /// they were armed.
    pub stale_timers_dropped: u64,
    /// Events buffered while their target was paused (gray failure).
    pub events_buffered_paused: u64,
    /// Process restarts ([`Simulation::restart`]).
    pub restarts: u64,
    /// Scripted fault events applied from a [`FaultPlan`].
    pub faults_injected: u64,
    /// Per-kind send counts, if a classifier was installed.
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl NetStats {
    /// Folds another run's statistics into this one (field-wise sums;
    /// per-kind counts merge entry-wise) — for aggregating a seed sweep
    /// into a single report.
    pub fn merge(&mut self, other: &NetStats) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_dropped += other.messages_dropped;
        self.timers_fired += other.timers_fired;
        self.messages_duplicated += other.messages_duplicated;
        self.messages_reordered += other.messages_reordered;
        self.stale_timers_dropped += other.stale_timers_dropped;
        self.events_buffered_paused += other.events_buffered_paused;
        self.restarts += other.restarts;
        self.faults_injected += other.faults_injected;
        for (kind, n) in &other.by_kind {
            *self.by_kind.entry(kind).or_insert(0) += n;
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "network stats:")?;
        writeln!(f, "  messages sent        {:>12}", self.messages_sent)?;
        writeln!(f, "  messages delivered   {:>12}", self.messages_delivered)?;
        writeln!(f, "  messages dropped     {:>12}", self.messages_dropped)?;
        writeln!(f, "  timers fired         {:>12}", self.timers_fired)?;
        writeln!(f, "  messages duplicated  {:>12}", self.messages_duplicated)?;
        writeln!(f, "  messages reordered   {:>12}", self.messages_reordered)?;
        writeln!(
            f,
            "  stale timers dropped {:>12}",
            self.stale_timers_dropped
        )?;
        writeln!(
            f,
            "  buffered while paused{:>12}",
            self.events_buffered_paused
        )?;
        writeln!(f, "  restarts             {:>12}", self.restarts)?;
        write!(f, "  faults injected      {:>12}", self.faults_injected)?;
        for (kind, n) in &self.by_kind {
            write!(
                f,
                "\n  sent[{kind}]{:>pad$}",
                n,
                pad = 27usize.saturating_sub(kind.len())
            )?;
        }
        Ok(())
    }
}

/// Message classifier used for per-kind send statistics.
type Classifier<M> = Box<dyn Fn(&M) -> &'static str>;

/// A deterministic discrete-event simulation over actors of type `A`
/// exchanging messages of type `M`.
///
/// See the [crate documentation](crate) for an example.
pub struct Simulation<M, A> {
    cfg: SimConfig,
    actors: Vec<A>,
    crashed: Vec<bool>,
    paused: Vec<bool>,
    /// Per-actor restart count; timers carry the incarnation they were
    /// armed under and die if it is stale at delivery.
    incarnation: Vec<u32>,
    /// Events that arrived while their target was paused, replayed in
    /// arrival order on resume.
    pause_buf: Vec<VecDeque<EventKey>>,
    /// Scripted faults not yet applied, sorted by time (stable).
    pending_faults: VecDeque<(SimTime, FaultEvent)>,
    /// Per directed link, indexed by [`Self::link_index`]. Empty while
    /// every link is healthy, which spares a fault-free run the `actors²`
    /// table; [`Self::link_mut`] fills it on the first link fault.
    links: Vec<LinkState>,
    fifo_last: Vec<SimTime>,
    /// Per-process earliest time the NIC is free to transmit the next
    /// message; only consulted when `cfg.tx_cost > ZERO`.
    next_free_tx: Vec<SimTime>,
    /// Pending events without their message bodies: the heap moves a key
    /// at every sift level, so keys stay small and `bodies` holds the rest.
    queue: BinaryHeap<EventKey>,
    /// Bodies of the deliveries in `queue` and `pause_buf`. A body leaves
    /// when its key is delivered, dropped at a crashed target, or drained
    /// by [`Simulation::crash`].
    bodies: Slab<M>,
    seq: u64,
    now: SimTime,
    rng: StdRng,
    started: bool,
    stats: NetStats,
    trace: TraceSink,
    classifier: Option<Classifier<M>>,
    scratch_sends: Vec<(ProcessId, M)>,
    scratch_timers: Vec<(SimDuration, TimerId)>,
}

impl<M: Clone, A: Actor<M>> Simulation<M, A> {
    /// Creates a simulation with one actor per id `p_1, …, p_k`.
    ///
    /// # Panics
    ///
    /// Panics if `actors.len()` does not match `cfg.actors`.
    pub fn new(cfg: SimConfig, actors: Vec<A>) -> Self {
        assert_eq!(
            actors.len(),
            cfg.actors as usize,
            "actor count must match configuration"
        );
        let k = cfg.actors as usize;
        let rng = StdRng::seed_from_u64(cfg.seed);
        Simulation {
            actors,
            crashed: vec![false; k],
            paused: vec![false; k],
            incarnation: vec![0; k],
            pause_buf: (0..k).map(|_| VecDeque::new()).collect(),
            pending_faults: VecDeque::new(),
            links: Vec::new(),
            fifo_last: vec![SimTime::ZERO; k * k],
            next_free_tx: vec![SimTime::ZERO; k],
            queue: BinaryHeap::new(),
            bodies: Slab::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng,
            started: false,
            stats: NetStats::default(),
            trace: TraceSink::disabled(),
            classifier: None,
            scratch_sends: Vec::new(),
            scratch_timers: Vec::new(),
            cfg,
        }
    }

    /// Installs a message classifier for per-kind statistics
    /// ([`NetStats::by_kind`]) and for the `kind` field of traced message
    /// events.
    pub fn set_classifier(&mut self, f: impl Fn(&M) -> &'static str + 'static) {
        self.classifier = Some(Box::new(f));
    }

    /// Installs a trace sink. The simulator stamps its simulated clock into
    /// the sink as time advances, so clones handed to sans-io modules emit
    /// correctly-timestamped events. Tracing never consumes RNG draws:
    /// enabling it cannot change the run it observes.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The installed trace sink (disabled by default).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Immutable access to an actor (for assertions and result reporting).
    pub fn actor(&self, id: ProcessId) -> &A {
        &self.actors[id.index()]
    }

    /// Mutable access to an actor (e.g. for injecting client commands).
    /// Side effects produced this way do not pass through a [`Context`];
    /// prefer timers or messages for anything the protocol should see.
    pub fn actor_mut(&mut self, id: ProcessId) -> &mut A {
        &mut self.actors[id.index()]
    }

    /// All actor ids.
    pub fn ids(&self) -> impl Iterator<Item = ProcessId> + Clone + use<M, A> {
        (1..=self.cfg.actors).map(ProcessId)
    }

    /// Marks `p` as crashed: it receives no further events and its future
    /// sends are discarded. (A benign crash failure.) Events buffered
    /// during a pause die with the crash.
    pub fn crash(&mut self, p: ProcessId) {
        self.crashed[p.index()] = true;
        self.paused[p.index()] = false;
        self.trace.emit(|| TraceEvent::Crash { p: p.0 });
        while let Some(ev) = self.pause_buf[p.index()].pop_front() {
            self.drop_at_crashed(ev);
        }
    }

    /// Discards an event addressed to a crashed process; an undelivered
    /// message counts as dropped and its body leaves the slab.
    fn drop_at_crashed(&mut self, ev: EventKey) {
        if let EventKind::Deliver { from, body } = ev.kind {
            drop(self.bodies.take(body));
            self.stats.messages_dropped += 1;
            self.trace.emit(|| TraceEvent::MsgDrop {
                from: from.0,
                to: ev.to.0,
                reason: "crashed".into(),
            });
        }
    }

    /// Whether `p` has crashed.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed[p.index()]
    }

    /// Restarts a crashed process (crash-recovery lifecycle).
    ///
    /// The actor keeps its pre-crash state — this models a benign crash
    /// with stable storage, the failure class the paper's detector must
    /// tolerate without violating safety — but every timer armed before
    /// the crash is discarded (its incarnation is stale). The actor's
    /// [`Actor::on_recover`] hook runs immediately so it can re-arm
    /// periodic timers and re-synchronize with its peers. Messages still
    /// in flight from before the crash are delivered normally: the network
    /// does not know the process died.
    ///
    /// Restarting a live process is a no-op.
    pub fn restart(&mut self, p: ProcessId) {
        if !self.crashed[p.index()] {
            return;
        }
        self.crashed[p.index()] = false;
        self.incarnation[p.index()] += 1;
        self.stats.restarts += 1;
        let incarnation = self.incarnation[p.index()];
        self.trace.emit(|| TraceEvent::Restart {
            p: p.0,
            incarnation,
        });
        if self.started {
            self.dispatch(p, |actor, ctx| actor.on_recover(ctx));
        }
    }

    /// Pauses `p` without killing it (gray failure: GC stall, VM freeze,
    /// overloaded host). Events addressed to it are buffered in arrival
    /// order and replayed on [`Simulation::resume`] — from the rest of the
    /// cluster's view the process is silent but not provably dead.
    pub fn pause(&mut self, p: ProcessId) {
        if !self.crashed[p.index()] {
            self.paused[p.index()] = true;
            self.trace.emit(|| TraceEvent::Pause { p: p.0 });
        }
    }

    /// Ends a pause, replaying every buffered event at the current instant
    /// in its original arrival order.
    pub fn resume(&mut self, p: ProcessId) {
        if !self.paused[p.index()] {
            return;
        }
        self.paused[p.index()] = false;
        self.trace.emit(|| TraceEvent::Resume { p: p.0 });
        while let Some(mut ev) = self.pause_buf[p.index()].pop_front() {
            ev.time = self.now;
            ev.seq = self.next_seq();
            self.queue.push(ev);
        }
    }

    /// Schedules a [`FaultPlan`] for execution. Scripted events apply at
    /// their scheduled times, deterministically interleaved with message
    /// and timer delivery; plans scheduled later merge by time. Events
    /// scheduled in the past apply before the next delivery.
    pub fn schedule_plan(&mut self, plan: FaultPlan) {
        for (t, ev) in plan.into_events() {
            let pos = self.pending_faults.partition_point(|(pt, _)| *pt <= t);
            self.pending_faults.insert(pos, (t, ev));
        }
    }

    /// Replaces the fault state of the directed link `from → to`.
    ///
    /// # Example
    ///
    /// Cutting one direction of one link (a per-link omission fault):
    ///
    /// ```
    /// # use qsel_simnet::*;
    /// # use qsel_types::ProcessId;
    /// # struct Quiet;
    /// # impl Actor<u8> for Quiet {
    /// #     fn on_start(&mut self, _: &mut Context<'_, u8>) {}
    /// #     fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
    /// #     fn on_timer(&mut self, _: &mut Context<'_, u8>, _: TimerId) {}
    /// # }
    /// let mut sim = Simulation::new(SimConfig::new(2, 0), vec![Quiet, Quiet]);
    /// sim.set_link(ProcessId(1), ProcessId(2), LinkState { drop_all: true, ..Default::default() });
    /// ```
    pub fn set_link(&mut self, from: ProcessId, to: ProcessId, state: LinkState) {
        *self.link_mut(from, to) = state;
    }

    /// Resets the directed link `from → to` to the healthy default.
    pub fn heal_link(&mut self, from: ProcessId, to: ProcessId) {
        self.set_link(from, to, LinkState::default());
    }

    /// Symmetrically partitions `group` from everyone else: links crossing
    /// the cut drop everything, and every non-crossing link is reset to the
    /// healthy default. Each call therefore *replaces* the previous
    /// partition instead of accumulating with it, and `partition(&[])`
    /// heals the whole network.
    pub fn partition(&mut self, group: &[ProcessId]) {
        let in_group = |p: ProcessId| group.contains(&p);
        let all: Vec<ProcessId> = self.ids().collect();
        for &a in &all {
            for &b in &all {
                if a == b {
                    continue;
                }
                let state = if in_group(a) != in_group(b) {
                    LinkState {
                        drop_all: true,
                        ..Default::default()
                    }
                } else {
                    LinkState::default()
                };
                self.set_link(a, b, state);
            }
        }
    }

    /// Heals every link.
    pub fn heal_all(&mut self) {
        self.links.clear();
    }

    /// Schedules an externally-injected message (e.g. a client request from
    /// outside the simulated cluster) for delivery at `at`.
    pub fn inject_at(&mut self, at: SimTime, from: ProcessId, to: ProcessId, msg: M) {
        debug_assert!(at >= self.now, "cannot inject into the past");
        self.enqueue_message(at.max(self.now), from, to, msg);
    }

    /// Runs `on_start` on every actor if not yet done. Called implicitly by
    /// the run methods; exposed so tests can interleave configuration.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 1..=self.cfg.actors {
            let id = ProcessId(id);
            if !self.crashed[id.index()] {
                self.dispatch(id, |actor, ctx| actor.on_start(ctx));
            }
        }
    }

    /// The time of the next pending work item — scripted fault or queued
    /// event — if any.
    fn next_work_time(&self) -> Option<SimTime> {
        let fault = self.pending_faults.front().map(|(t, _)| *t);
        let event = self.queue.peek().map(|e| e.time);
        match (fault, event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Applies the next scripted fault (caller checked it is due).
    fn apply_next_fault(&mut self) {
        let (t, fault) = self.pending_faults.pop_front().expect("fault pending");
        if t > self.now {
            self.now = t;
        }
        self.trace.set_now(self.now.as_micros());
        self.trace.emit(|| TraceEvent::FaultApplied {
            desc: format!("{fault:?}"),
        });
        self.stats.faults_injected += 1;
        match fault {
            FaultEvent::Partition(group) => self.partition(&group),
            FaultEvent::HealAll => self.heal_all(),
            FaultEvent::Crash(p) => self.crash(p),
            FaultEvent::Restart(p) => self.restart(p),
            FaultEvent::Pause(p) => self.pause(p),
            FaultEvent::Resume(p) => self.resume(p),
            FaultEvent::SetLink { from, to, state } => self.set_link(from, to, state),
            FaultEvent::DegradeLink {
                from,
                to,
                extra_delay,
                jitter,
            } => {
                let link = self.link_mut(from, to);
                link.extra_delay = extra_delay;
                link.jitter = jitter;
            }
            FaultEvent::HealLink { from, to } => self.heal_link(from, to),
        }
    }

    /// Processes the next event or due scripted fault. Returns `false`
    /// when neither remains.
    pub fn step(&mut self) -> bool {
        self.start();
        // Scripted faults scheduled at or before the next queue event apply
        // first: a fault and a delivery at the same instant resolve in
        // favour of the fault, so "partition at t" means messages delivered
        // at t already find the cut in place.
        let next_event = self.queue.peek().map(|e| e.time);
        if let Some((tf, _)) = self.pending_faults.front() {
            if next_event.is_none_or(|te| *tf <= te) {
                self.apply_next_fault();
                return true;
            }
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue out of order");
        self.now = ev.time;
        self.trace.set_now(self.now.as_micros());
        let to = ev.to;
        if self.crashed[to.index()] {
            self.drop_at_crashed(ev);
            return true;
        }
        if let EventKind::Timer { .. } = ev.kind {
            // A restarted process must not see its previous life's timers.
            if ev.inc != self.incarnation[to.index()] {
                self.stats.stale_timers_dropped += 1;
                self.trace.emit(|| TraceEvent::TimerStale { at: to.0 });
                return true;
            }
        }
        if self.paused[to.index()] {
            // Gray failure: the process is frozen, not dead. Hold the event
            // for replay at resume time.
            self.stats.events_buffered_paused += 1;
            self.trace.emit(|| TraceEvent::BufferedPaused { at: to.0 });
            self.pause_buf[to.index()].push_back(ev);
            return true;
        }
        match ev.kind {
            EventKind::Deliver { from, body } => {
                let msg = self.bodies.take(body);
                self.stats.messages_delivered += 1;
                if self.trace.enabled() {
                    let kind = self.classifier.as_ref().map_or("", |c| c(&msg));
                    self.trace.emit(|| TraceEvent::MsgDeliver {
                        from: from.0,
                        to: to.0,
                        kind: kind.into(),
                    });
                }
                self.dispatch(to, |actor, ctx| actor.on_message(ctx, from, msg));
            }
            EventKind::Timer { id } => {
                self.stats.timers_fired += 1;
                self.trace.emit(|| TraceEvent::TimerFired { at: to.0 });
                self.dispatch(to, |actor, ctx| actor.on_timer(ctx, id));
            }
        }
        true
    }

    /// Runs until no event or scripted fault at time ≤ `until` remains,
    /// then advances the clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.start();
        let mut steps = 0u64;
        while let Some(next) = self.next_work_time() {
            if next > until {
                break;
            }
            self.step();
            steps += 1;
            assert!(
                steps <= self.cfg.max_steps,
                "simulation exceeded {} steps before {until}",
                self.cfg.max_steps
            );
        }
        self.now = until;
        self.trace.set_now(self.now.as_micros());
    }

    /// Runs until the event queue is fully drained. Returns the number of
    /// steps taken.
    ///
    /// # Panics
    ///
    /// Panics after `cfg.max_steps` steps — protocols with periodic
    /// re-arming timers never quiesce; use [`Simulation::run_until`] for
    /// those.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.start();
        let mut steps = 0u64;
        while self.step() {
            steps += 1;
            assert!(
                steps <= self.cfg.max_steps,
                "simulation did not quiesce within {} steps",
                self.cfg.max_steps
            );
        }
        steps
    }

    fn dispatch<F>(&mut self, id: ProcessId, f: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, M>),
    {
        let mut sends = std::mem::take(&mut self.scratch_sends);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        sends.clear();
        timers.clear();
        {
            let mut ctx = Context {
                me: id,
                now: self.now,
                sends: &mut sends,
                timers: &mut timers,
            };
            f(&mut self.actors[id.index()], &mut ctx);
        }
        for (after, tid) in timers.drain(..) {
            let seq = self.next_seq();
            self.queue.push(EventKey {
                time: self.now + after,
                seq,
                to: id,
                inc: self.incarnation[id.index()],
                kind: EventKind::Timer { id: tid },
            });
        }
        for (to, msg) in sends.drain(..) {
            self.route(id, to, msg);
        }
        self.scratch_sends = sends;
        self.scratch_timers = timers;
    }

    fn route(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        assert!(
            to.0 >= 1 && to.0 <= self.cfg.actors,
            "send to unknown actor {to}"
        );
        self.stats.messages_sent += 1;
        let mut kind = "";
        if let Some(classify) = &self.classifier {
            kind = classify(&msg);
            *self.stats.by_kind.entry(kind).or_insert(0) += 1;
        }
        self.trace.emit(|| TraceEvent::MsgSend {
            from: from.0,
            to: to.0,
            kind: kind.into(),
        });
        let idx = self.link_index(from, to);
        let link = self.links.get(idx).unwrap_or(&HEALTHY_LINK);
        if link.drop_all || (link.drop_prob > 0.0 && self.rng.random::<f64>() < link.drop_prob) {
            self.stats.messages_dropped += 1;
            self.trace.emit(|| TraceEvent::MsgDrop {
                from: from.0,
                to: to.0,
                reason: "link".into(),
            });
            return;
        }
        // Every extra RNG draw below is gated on its fault knob being
        // non-zero, so executions without these faults consume the exact
        // same random stream as before the fault layer existed.
        let duplicate = link.dup_prob > 0.0 && self.rng.random::<f64>() < link.dup_prob;
        let reorder = link.reorder_prob > 0.0 && self.rng.random::<f64>() < link.reorder_prob;
        // Egress serialization: with a non-zero tx_cost the sender's NIC
        // departs one message every tx_cost, so a burst queues at the
        // sender. The zero-cost default takes the `self.now` branch with no
        // state update and no RNG draw, leaving seeded runs unchanged.
        let depart = if self.cfg.tx_cost > SimDuration::ZERO {
            let free = self.next_free_tx[from.index()].max(self.now);
            let depart = free + self.cfg.tx_cost;
            self.next_free_tx[from.index()] = depart;
            depart
        } else {
            self.now
        };
        if duplicate {
            // The duplicate takes an independent delay and respects the
            // FIFO floor, so it trails the original or later traffic. It is
            // created by the network, not the sender, so it costs no extra
            // egress serialization.
            self.stats.messages_duplicated += 1;
            self.trace.emit(|| TraceEvent::MsgDuplicated {
                from: from.0,
                to: to.0,
            });
            self.enqueue_delivery(idx, from, to, depart, false, msg.clone());
        }
        self.enqueue_delivery(idx, from, to, depart, reorder, msg);
    }

    /// Samples a delay for one delivery on link `idx` departing the sender
    /// at `depart` and enqueues it.
    fn enqueue_delivery(
        &mut self,
        idx: usize,
        from: ProcessId,
        to: ProcessId,
        depart: SimTime,
        reorder: bool,
        msg: M,
    ) {
        let link = self.links.get(idx).unwrap_or(&HEALTHY_LINK);
        let model = link.delay_override.unwrap_or(self.cfg.delay);
        let mut deliver_at = depart + model.sample(&mut self.rng, self.now) + link.extra_delay;
        if link.jitter > SimDuration::ZERO {
            deliver_at += SimDuration::micros(self.rng.random_range(0..=link.jitter.as_micros()));
        }
        if reorder {
            // Hold the message back without advancing the FIFO floor:
            // traffic sent later may overtake it.
            self.stats.messages_reordered += 1;
            self.trace.emit(|| TraceEvent::MsgReordered {
                from: from.0,
                to: to.0,
            });
            let hold = model.sample(&mut self.rng, self.now).saturating_mul(3);
            deliver_at = deliver_at + hold + SimDuration::micros(1);
        } else if self.cfg.fifo {
            let floor = self.fifo_last[idx] + SimDuration::micros(1);
            if deliver_at < floor {
                deliver_at = floor;
            }
            self.fifo_last[idx] = deliver_at;
        }
        self.enqueue_message(deliver_at, from, to, msg);
    }

    /// Parks `msg` in the slab and queues the key that delivers it at `at`.
    fn enqueue_message(&mut self, at: SimTime, from: ProcessId, to: ProcessId, msg: M) {
        let seq = self.next_seq();
        let body = self.bodies.insert(msg);
        self.queue.push(EventKey {
            time: at,
            seq,
            to,
            inc: 0,
            kind: EventKind::Deliver { from, body },
        });
    }

    fn link_index(&self, from: ProcessId, to: ProcessId) -> usize {
        from.index() * self.cfg.actors as usize + to.index()
    }

    /// The `from → to` entry of the link table, materializing the table
    /// (all healthy) if this is the first link fault.
    fn link_mut(&mut self, from: ProcessId, to: ProcessId) -> &mut LinkState {
        let idx = self.link_index(from, to);
        if self.links.is_empty() {
            let k = self.cfg.actors as usize;
            self.links.resize(k * k, HEALTHY_LINK);
        }
        &mut self.links[idx]
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts received pings; replies pong to the first; re-arms a timer
    /// a fixed number of times.
    struct Counter {
        pings: u32,
        pongs: u32,
        timers: u32,
        arm: u32,
    }

    impl Counter {
        fn new(arm: u32) -> Self {
            Counter {
                pings: 0,
                pongs: 0,
                timers: 0,
                arm,
            }
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Actor<Msg> for Counter {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            // Timer-mode counters (arm > 0) run in single-actor sims and
            // must not send; ping-mode counters drive the 2-actor tests.
            if ctx.me() == ProcessId(1) && self.arm == 0 {
                ctx.send(ProcessId(2), Msg::Ping);
                ctx.send(ProcessId(2), Msg::Ping);
            }
            if self.arm > 0 {
                ctx.set_timer(SimDuration::micros(10), TimerId(0));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
            match msg {
                Msg::Ping => {
                    self.pings += 1;
                    if self.pings == 1 {
                        ctx.send(from, Msg::Pong);
                    }
                }
                Msg::Pong => self.pongs += 1,
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId) {
            self.timers += 1;
            if self.timers < self.arm {
                ctx.set_timer(SimDuration::micros(10), TimerId(0));
            }
        }
    }

    fn two(seed: u64) -> Simulation<Msg, Counter> {
        Simulation::new(
            SimConfig::new(2, seed),
            vec![Counter::new(0), Counter::new(0)],
        )
    }

    #[test]
    fn the_unset_link_table_stands_for_default_links() {
        assert_eq!(
            format!("{HEALTHY_LINK:?}"),
            format!("{:?}", LinkState::default())
        );
        let mut sim = two(1);
        assert!(
            sim.links.is_empty(),
            "a healthy network allocates no link table"
        );
        let cut = LinkState {
            drop_all: true,
            ..Default::default()
        };
        sim.set_link(ProcessId(1), ProcessId(2), cut);
        assert_eq!(sim.links.len(), 4);
        assert!(sim.links[sim.link_index(ProcessId(1), ProcessId(2))].drop_all);
        sim.heal_all();
        assert!(sim.links.is_empty());
    }

    #[test]
    fn basic_delivery() {
        let mut sim = two(1);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 2);
        assert_eq!(sim.actor(ProcessId(1)).pongs, 1);
        assert_eq!(sim.stats().messages_sent, 3);
        assert_eq!(sim.stats().messages_delivered, 3);
    }

    #[test]
    fn net_stats_empty_merge_is_identity() {
        let mut sim = two(1);
        sim.run_to_quiescence();
        let base = sim.stats().clone();
        // Folding a default (all-zero, no kinds) stats is a no-op …
        let mut merged = base.clone();
        merged.merge(&NetStats::default());
        assert_eq!(merged, base);
        // … and folding into an empty accumulator reproduces the input.
        let mut acc = NetStats::default();
        acc.merge(&base);
        assert_eq!(acc, base);
    }

    #[test]
    fn net_stats_merge_sums_fields_and_kinds() {
        let mut a = NetStats {
            messages_sent: 3,
            messages_delivered: 2,
            messages_dropped: 1,
            timers_fired: 4,
            restarts: 1,
            ..NetStats::default()
        };
        a.by_kind.insert("prepare", 2);
        a.by_kind.insert("commit", 1);
        let mut b = NetStats {
            messages_sent: 5,
            messages_duplicated: 2,
            faults_injected: 3,
            ..NetStats::default()
        };
        b.by_kind.insert("prepare", 4);
        b.by_kind.insert("heartbeat", 7);
        a.merge(&b);
        assert_eq!(a.messages_sent, 8);
        assert_eq!(a.messages_delivered, 2);
        assert_eq!(a.messages_dropped, 1);
        assert_eq!(a.timers_fired, 4);
        assert_eq!(a.messages_duplicated, 2);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.faults_injected, 3);
        assert_eq!(a.by_kind["prepare"], 6, "shared kinds sum entry-wise");
        assert_eq!(a.by_kind["commit"], 1);
        assert_eq!(a.by_kind["heartbeat"], 7, "unseen kinds are adopted");
    }

    #[test]
    fn zero_tx_cost_leaves_seeded_runs_unchanged() {
        // `with_tx_cost(ZERO)` must be indistinguishable from not setting
        // it at all: same deliveries, same stats.
        for seed in [1, 9, 42] {
            let mut plain = two(seed);
            plain.run_to_quiescence();
            let mut zero = Simulation::new(
                SimConfig::new(2, seed).with_tx_cost(SimDuration::ZERO),
                vec![Counter::new(0), Counter::new(0)],
            );
            zero.run_to_quiescence();
            assert_eq!(plain.stats(), zero.stats(), "seed {seed}");
            assert_eq!(plain.now(), zero.now(), "seed {seed}");
        }
    }

    #[test]
    fn tx_cost_serializes_a_send_burst() {
        // With a constant link delay and a 100µs egress cost, the two
        // pings sent in the same step depart 100µs apart, so the second
        // arrives exactly tx_cost after the first.
        struct Recorder {
            arrivals: Vec<SimTime>,
        }
        impl Actor<Msg> for Recorder {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if ctx.me() == ProcessId(1) {
                    ctx.send(ProcessId(2), Msg::Ping);
                    ctx.send(ProcessId(2), Msg::Ping);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {
                self.arrivals.push(ctx.now());
            }
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: TimerId) {}
        }
        let cfg = SimConfig::new(2, 5)
            .with_delay(DelayModel::Constant(SimDuration::micros(50)))
            .with_tx_cost(SimDuration::micros(100));
        let mut sim = Simulation::new(
            cfg,
            vec![Recorder { arrivals: vec![] }, Recorder { arrivals: vec![] }],
        );
        sim.run_to_quiescence();
        let arrivals = &sim.actor(ProcessId(2)).arrivals;
        assert_eq!(arrivals.len(), 2);
        // First departs at 100µs (NIC free at t=0 + cost), second at 200µs;
        // both then take the constant 50µs link delay.
        assert_eq!(arrivals[0], SimTime::from_micros(150));
        assert_eq!(arrivals[1], SimTime::from_micros(250));
    }

    #[test]
    fn fifo_preserves_order_even_with_random_delays() {
        // With FIFO on, the two pings sent back-to-back arrive in order;
        // we detect misordering by replying only to the first ping and
        // checking the timeline: delivered count must be 3 in all seeds.
        for seed in 0..50 {
            let mut sim = two(seed);
            sim.run_to_quiescence();
            assert_eq!(sim.actor(ProcessId(2)).pings, 2, "seed {seed}");
        }
    }

    #[test]
    fn drop_all_link() {
        let mut sim = two(3);
        sim.set_link(
            ProcessId(1),
            ProcessId(2),
            LinkState {
                drop_all: true,
                ..Default::default()
            },
        );
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 0);
        assert_eq!(sim.stats().messages_dropped, 2);
    }

    #[test]
    fn crash_drops_delivery() {
        let mut sim = two(4);
        sim.start();
        sim.crash(ProcessId(2));
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 0);
        assert_eq!(sim.stats().messages_dropped, 2);
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut sim = Simulation::new(SimConfig::new(1, 5), vec![Counter::new(4)]);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(1)).timers, 4);
        assert_eq!(sim.stats().timers_fired, 4);
    }

    #[test]
    fn determinism_across_runs() {
        let trace = |seed: u64| {
            let mut sim = two(seed);
            sim.run_to_quiescence();
            (
                sim.now(),
                sim.stats().messages_delivered,
                sim.actor(ProcessId(1)).pongs,
            )
        };
        assert_eq!(trace(7), trace(7));
    }

    #[test]
    fn classifier_counts_kinds() {
        let mut sim = two(6);
        sim.set_classifier(|m| match m {
            Msg::Ping => "ping",
            Msg::Pong => "pong",
        });
        sim.run_to_quiescence();
        assert_eq!(sim.stats().by_kind["ping"], 2);
        assert_eq!(sim.stats().by_kind["pong"], 1);
    }

    #[test]
    fn run_until_advances_clock() {
        let mut sim = two(8);
        sim.run_until(SimTime::from_micros(5));
        assert_eq!(sim.now(), SimTime::from_micros(5));
        sim.run_until(SimTime::from_micros(10_000));
        assert_eq!(sim.now(), SimTime::from_micros(10_000));
        assert_eq!(sim.actor(ProcessId(2)).pings, 2);
    }

    #[test]
    fn injection() {
        let mut sim = two(9);
        sim.inject_at(
            SimTime::from_micros(50),
            ProcessId(2),
            ProcessId(2),
            Msg::Ping,
        );
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 3);
    }

    #[test]
    fn partition_and_heal() {
        let mut sim = two(10);
        sim.partition(&[ProcessId(1)]);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 0);
        sim.heal_all();
        sim.inject_at(sim.now(), ProcessId(1), ProcessId(1), Msg::Pong); // poke p1
        sim.run_to_quiescence();
        // p1 got a pong injection; no new pings were produced by protocol.
        assert_eq!(sim.actor(ProcessId(1)).pongs, 1);
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn runaway_timer_detected() {
        let mut cfg = SimConfig::new(1, 11);
        cfg.max_steps = 100;
        let mut sim = Simulation::new(cfg, vec![Counter::new(u32::MAX)]);
        sim.run_to_quiescence();
    }

    /// Echoes every ping with a pong and counts recoveries; used by the
    /// fault-layer tests below.
    struct Recoverer {
        pings: u32,
        recoveries: u32,
        rearmed: u32,
    }

    impl Actor<Msg> for Recoverer {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.me() == ProcessId(1) {
                ctx.set_timer(SimDuration::millis(1), TimerId(7));
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, msg: Msg) {
            if msg == Msg::Ping {
                self.pings += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId) {
            self.rearmed += 1;
            ctx.set_timer(SimDuration::millis(1), TimerId(7));
        }
        fn on_recover(&mut self, ctx: &mut Context<'_, Msg>) {
            self.recoveries += 1;
            ctx.set_timer(SimDuration::millis(1), TimerId(7));
        }
    }

    fn recoverers(n: u32, seed: u64) -> Simulation<Msg, Recoverer> {
        let actors = (0..n)
            .map(|_| Recoverer {
                pings: 0,
                recoveries: 0,
                rearmed: 0,
            })
            .collect();
        Simulation::new(SimConfig::new(n, seed), actors)
    }

    #[test]
    fn restart_runs_on_recover_and_kills_stale_timers() {
        let mut sim = recoverers(2, 20);
        sim.run_until(SimTime::from_micros(5_500));
        let before = sim.actor(ProcessId(1)).rearmed;
        assert!(before >= 5);
        // Crash and immediately restart: the pre-crash timer (armed under
        // the old incarnation) is still queued and must be discarded as
        // stale instead of firing into the new life.
        sim.crash(ProcessId(1));
        sim.restart(ProcessId(1));
        assert_eq!(sim.actor(ProcessId(1)).recoveries, 1);
        sim.run_until(SimTime::from_micros(20_000));
        assert!(sim.stats().stale_timers_dropped >= 1);
        // The chain re-armed from on_recover keeps firing.
        assert!(sim.actor(ProcessId(1)).rearmed > before);
    }

    #[test]
    fn restart_of_live_process_is_noop() {
        let mut sim = recoverers(2, 21);
        sim.run_until(SimTime::from_micros(1_000));
        sim.restart(ProcessId(2));
        assert_eq!(sim.actor(ProcessId(2)).recoveries, 0);
        assert_eq!(sim.stats().restarts, 0);
    }

    #[test]
    fn messages_in_flight_survive_a_restart() {
        let mut sim = recoverers(2, 22);
        sim.start();
        // A message injected for delivery while p2 is crashed is dropped;
        // one delivered after restart arrives (the network outlives the
        // process).
        sim.crash(ProcessId(2));
        sim.inject_at(
            SimTime::from_micros(100),
            ProcessId(1),
            ProcessId(2),
            Msg::Ping,
        );
        sim.run_until(SimTime::from_micros(200));
        sim.restart(ProcessId(2));
        sim.inject_at(
            SimTime::from_micros(300),
            ProcessId(1),
            ProcessId(2),
            Msg::Ping,
        );
        sim.run_until(SimTime::from_micros(1_000));
        assert_eq!(sim.actor(ProcessId(2)).pings, 1);
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn pause_buffers_and_resume_replays_in_order() {
        let mut sim = two(23);
        sim.start();
        sim.pause(ProcessId(2));
        sim.run_to_quiescence();
        // Both pings arrived during the pause: buffered, not delivered.
        assert_eq!(sim.actor(ProcessId(2)).pings, 0);
        assert_eq!(sim.stats().events_buffered_paused, 2);
        sim.resume(ProcessId(2));
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 2);
        // The pong reply (sent on first ping) still flows after resume.
        assert_eq!(sim.actor(ProcessId(1)).pongs, 1);
    }

    #[test]
    fn crash_discards_pause_buffer() {
        let mut sim = two(24);
        sim.start();
        sim.pause(ProcessId(2));
        sim.run_to_quiescence();
        sim.crash(ProcessId(2));
        sim.restart(ProcessId(2));
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 0);
        assert_eq!(sim.stats().messages_dropped, 2);
    }

    #[test]
    fn duplication_delivers_twice_and_is_counted() {
        let mut sim = two(25);
        sim.set_link(
            ProcessId(1),
            ProcessId(2),
            LinkState {
                dup_prob: 1.0,
                ..Default::default()
            },
        );
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 4);
        assert_eq!(sim.stats().messages_duplicated, 2);
        assert_eq!(sim.stats().messages_sent, 3, "duplicates are not sends");
    }

    #[test]
    fn reordering_lets_later_traffic_overtake() {
        // With reorder_prob = 1 on a FIFO link, held-back messages take
        // extra delay and do not advance the FIFO floor; the two pings are
        // still delivered (reordering never loses messages).
        let mut sim = two(26);
        sim.set_link(
            ProcessId(1),
            ProcessId(2),
            LinkState {
                reorder_prob: 1.0,
                ..Default::default()
            },
        );
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 2);
        assert_eq!(sim.stats().messages_reordered, 2);
    }

    #[test]
    fn jitter_spreads_delivery_times() {
        let base = |seed| {
            let mut sim = two(seed);
            sim.run_to_quiescence();
            sim.now()
        };
        let jittered = |seed| {
            let mut sim = two(seed);
            sim.set_link(
                ProcessId(1),
                ProcessId(2),
                LinkState {
                    jitter: SimDuration::millis(50),
                    ..Default::default()
                },
            );
            sim.run_to_quiescence();
            sim.now()
        };
        // Across seeds, jitter must sometimes stretch the completion time
        // beyond the no-jitter run.
        let stretched = (0..10).filter(|&s| jittered(s) > base(s)).count();
        assert!(
            stretched >= 5,
            "jitter had no effect in {stretched}/10 runs"
        );
    }

    #[test]
    fn partition_replaces_and_empty_partition_heals() {
        let mut sim = two(27);
        sim.partition(&[ProcessId(1)]);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 0);
        // Healing via an empty partition group restores delivery.
        sim.partition(&[]);
        sim.inject_at(sim.now(), ProcessId(1), ProcessId(2), Msg::Ping);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(ProcessId(2)).pings, 1);
    }

    #[test]
    fn fault_plan_executes_at_scheduled_times() {
        let mut sim = recoverers(2, 28);
        sim.schedule_plan(
            FaultPlan::new()
                .at(SimTime::from_micros(2_500), FaultEvent::Crash(ProcessId(1)))
                .at(
                    SimTime::from_micros(10_000),
                    FaultEvent::Restart(ProcessId(1)),
                ),
        );
        sim.run_until(SimTime::from_micros(2_400));
        assert!(!sim.is_crashed(ProcessId(1)));
        sim.run_until(SimTime::from_micros(3_000));
        assert!(sim.is_crashed(ProcessId(1)));
        let rearmed_at_crash = sim.actor(ProcessId(1)).rearmed;
        sim.run_until(SimTime::from_micros(30_000));
        assert!(!sim.is_crashed(ProcessId(1)));
        assert_eq!(sim.actor(ProcessId(1)).recoveries, 1);
        assert!(sim.actor(ProcessId(1)).rearmed > rearmed_at_crash);
        assert_eq!(sim.stats().faults_injected, 2);
    }

    #[test]
    fn fault_plan_applies_with_empty_event_queue() {
        // A restart scheduled after the queue drains must still fire: the
        // step loop merges fault times with event times.
        let mut sim = two(29);
        sim.schedule_plan(
            FaultPlan::new()
                .at(SimTime::from_micros(1), FaultEvent::Crash(ProcessId(2)))
                .at(
                    SimTime::from_micros(500_000),
                    FaultEvent::Restart(ProcessId(2)),
                ),
        );
        sim.run_until(SimTime::from_micros(1_000_000));
        assert!(!sim.is_crashed(ProcessId(2)));
        assert_eq!(sim.stats().faults_injected, 2);
    }

    #[test]
    fn faulty_runs_reproduce_from_seed_and_plan() {
        let run = |seed: u64| {
            let mut sim = recoverers(3, seed);
            sim.set_link(
                ProcessId(1),
                ProcessId(2),
                LinkState {
                    drop_prob: 0.3,
                    dup_prob: 0.3,
                    reorder_prob: 0.2,
                    jitter: SimDuration::millis(2),
                    ..Default::default()
                },
            );
            sim.schedule_plan(
                FaultPlan::new()
                    .at(SimTime::from_micros(3_000), FaultEvent::Pause(ProcessId(2)))
                    .at(
                        SimTime::from_micros(6_000),
                        FaultEvent::Resume(ProcessId(2)),
                    )
                    .at(SimTime::from_micros(9_000), FaultEvent::Crash(ProcessId(3)))
                    .at(
                        SimTime::from_micros(12_000),
                        FaultEvent::Restart(ProcessId(3)),
                    ),
            );
            sim.run_until(SimTime::from_micros(50_000));
            (
                sim.stats().messages_delivered,
                sim.stats().messages_duplicated,
                sim.stats().messages_reordered,
                sim.stats().events_buffered_paused,
                sim.now(),
            )
        };
        assert_eq!(run(77), run(77));
    }

    /// The queue against a reference that keeps whole events — body
    /// included — in one `BinaryHeap` ordered by `(time, seq)`, the shape
    /// the slab-keyed queue replaced.
    mod queue_model {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;

        const ACTORS: u32 = 4;
        const LINK_DELAY: u64 = 10;

        /// What an actor was called with.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum Input {
            Start,
            Recover,
            Message(ProcessId, u64),
            Timer(TimerId),
        }

        /// Reacts to every callback with sends and timers drawn from its
        /// own call counter, until its fuel runs out (so runs quiesce).
        struct Scripted {
            calls: u64,
            fuel: u32,
            seen: Vec<(SimTime, Input)>,
        }

        type Effects = (Vec<(ProcessId, u64)>, Vec<(SimDuration, TimerId)>);

        impl Scripted {
            fn new() -> Self {
                Scripted {
                    calls: 0,
                    fuel: 40,
                    seen: Vec::new(),
                }
            }

            fn react(&mut self, me: ProcessId, now: SimTime, input: Input) -> Effects {
                self.seen.push((now, input));
                self.calls += 1;
                let mut x =
                    (u64::from(me.0) << 32 | self.calls).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut draw = |n: u64| {
                    x ^= x >> 29;
                    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    (x >> 33) % n
                };
                let (mut sends, mut timers) = (Vec::new(), Vec::new());
                for _ in 0..draw(3) {
                    if self.fuel > 0 {
                        self.fuel -= 1;
                        sends.push((ProcessId(1 + draw(u64::from(ACTORS)) as u32), draw(1 << 20)));
                    }
                }
                if draw(2) == 0 && self.fuel > 0 {
                    self.fuel -= 1;
                    timers.push((SimDuration::micros(draw(25)), TimerId(draw(9))));
                }
                (sends, timers)
            }

            fn replay(&mut self, ctx: &mut Context<'_, u64>, input: Input) {
                let (sends, timers) = self.react(ctx.me(), ctx.now(), input);
                for (after, id) in timers {
                    ctx.set_timer(after, id);
                }
                for (to, msg) in sends {
                    ctx.send(to, msg);
                }
            }
        }

        impl Actor<u64> for Scripted {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                self.replay(ctx, Input::Start);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: u64) {
                self.replay(ctx, Input::Message(from, msg));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>, timer: TimerId) {
                self.replay(ctx, Input::Timer(timer));
            }
            fn on_recover(&mut self, ctx: &mut Context<'_, u64>) {
                self.replay(ctx, Input::Recover);
            }
        }

        fn link_extra(from: ProcessId, to: ProcessId) -> u64 {
            u64::from((from.0 * 7 + to.0 * 3) % 5) * 3
        }

        /// A whole event: `(time, seq)` first, so the derived order is the
        /// queue's order; the body travels with the key.
        type FullEvent = Reverse<(SimTime, u64, u32, u32, Option<(u32, u64)>, u64)>;

        /// The reference simulator.
        struct Model {
            actors: Vec<Scripted>,
            crashed: Vec<bool>,
            paused: Vec<bool>,
            incarnation: Vec<u32>,
            pause_buf: Vec<VecDeque<FullEvent>>,
            fifo_last: Vec<SimTime>,
            queue: BinaryHeap<FullEvent>,
            seq: u64,
            now: SimTime,
            stats: NetStats,
        }

        impl Model {
            fn new() -> Self {
                let k = ACTORS as usize;
                let mut m = Model {
                    actors: (0..k).map(|_| Scripted::new()).collect(),
                    crashed: vec![false; k],
                    paused: vec![false; k],
                    incarnation: vec![0; k],
                    pause_buf: vec![VecDeque::new(); k],
                    fifo_last: vec![SimTime::ZERO; k * k],
                    queue: BinaryHeap::new(),
                    seq: 0,
                    now: SimTime::ZERO,
                    stats: NetStats::default(),
                };
                for id in 1..=ACTORS {
                    m.dispatch(ProcessId(id), Input::Start);
                }
                m
            }

            fn push(
                &mut self,
                time: SimTime,
                to: ProcessId,
                inc: u32,
                body: Option<(u32, u64)>,
                timer: u64,
            ) {
                self.queue
                    .push(Reverse((time, self.seq, to.0, inc, body, timer)));
                self.seq += 1;
            }

            fn dispatch(&mut self, id: ProcessId, input: Input) {
                let (sends, timers) = self.actors[id.index()].react(id, self.now, input);
                for (after, tid) in timers {
                    self.push(
                        self.now + after,
                        id,
                        self.incarnation[id.index()],
                        None,
                        tid.0,
                    );
                }
                for (to, msg) in sends {
                    self.stats.messages_sent += 1;
                    let idx = id.index() * ACTORS as usize + to.index();
                    let mut at = self.now + SimDuration::micros(LINK_DELAY + link_extra(id, to));
                    at = at.max(self.fifo_last[idx] + SimDuration::micros(1));
                    self.fifo_last[idx] = at;
                    self.push(at, to, 0, Some((id.0, msg)), 0);
                }
            }

            fn drop_at_crashed(&mut self, ev: &FullEvent) {
                if ev.0 .4.is_some() {
                    self.stats.messages_dropped += 1;
                }
            }

            fn step(&mut self) -> bool {
                let Some(ev) = self.queue.pop() else {
                    return false;
                };
                let Reverse((time, _, to, inc, body, timer)) = ev;
                self.now = time;
                let to = ProcessId(to);
                if self.crashed[to.index()] {
                    self.drop_at_crashed(&ev);
                } else if body.is_none() && inc != self.incarnation[to.index()] {
                    self.stats.stale_timers_dropped += 1;
                } else if self.paused[to.index()] {
                    self.stats.events_buffered_paused += 1;
                    self.pause_buf[to.index()].push_back(ev);
                } else if let Some((from, msg)) = body {
                    self.stats.messages_delivered += 1;
                    self.dispatch(to, Input::Message(ProcessId(from), msg));
                } else {
                    self.stats.timers_fired += 1;
                    self.dispatch(to, Input::Timer(TimerId(timer)));
                }
                true
            }

            fn crash(&mut self, p: ProcessId) {
                self.crashed[p.index()] = true;
                self.paused[p.index()] = false;
                for ev in std::mem::take(&mut self.pause_buf[p.index()]) {
                    self.drop_at_crashed(&ev);
                }
            }

            fn restart(&mut self, p: ProcessId) {
                if self.crashed[p.index()] {
                    self.crashed[p.index()] = false;
                    self.incarnation[p.index()] += 1;
                    self.stats.restarts += 1;
                    self.dispatch(p, Input::Recover);
                }
            }

            fn pause(&mut self, p: ProcessId) {
                self.paused[p.index()] |= !self.crashed[p.index()];
            }

            fn resume(&mut self, p: ProcessId) {
                if std::mem::take(&mut self.paused[p.index()]) {
                    for Reverse((_, _, to, inc, body, timer)) in
                        std::mem::take(&mut self.pause_buf[p.index()])
                    {
                        self.push(self.now, ProcessId(to), inc, body, timer);
                    }
                }
            }

            fn in_flight(&self) -> usize {
                let bodies = |ev: &&FullEvent| ev.0 .4.is_some();
                self.queue.iter().filter(bodies).count()
                    + self.pause_buf.iter().flatten().filter(bodies).count()
            }
        }

        fn real() -> Simulation<u64, Scripted> {
            let cfg = SimConfig::new(ACTORS, 0)
                .with_delay(DelayModel::Constant(SimDuration::micros(LINK_DELAY)));
            let mut sim = Simulation::new(cfg, (0..ACTORS).map(|_| Scripted::new()).collect());
            for from in sim.ids() {
                for to in sim.ids() {
                    let extra_delay = SimDuration::micros(link_extra(from, to));
                    sim.set_link(
                        from,
                        to,
                        LinkState {
                            extra_delay,
                            ..Default::default()
                        },
                    );
                }
            }
            sim.start();
            sim
        }

        #[derive(Clone, Debug)]
        enum Op {
            Steps(u32),
            Pause(u32),
            Resume(u32),
            Crash(u32),
            Restart(u32),
            Inject(u32, u32, u64, u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            let p = || 1u32..=ACTORS;
            prop_oneof![
                (1u32..12).prop_map(Op::Steps),
                (1u32..12).prop_map(Op::Steps),
                p().prop_map(Op::Pause),
                p().prop_map(Op::Resume),
                p().prop_map(Op::Crash),
                p().prop_map(Op::Restart),
                (p(), p(), 0u64..30, 0u64..1000).prop_map(|(f, t, d, m)| Op::Inject(f, t, d, m)),
            ]
        }

        fn assert_same(
            sim: &Simulation<u64, Scripted>,
            model: &Model,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(sim.stats(), &model.stats);
            prop_assert_eq!(sim.now(), model.now);
            for id in sim.ids() {
                prop_assert_eq!(&sim.actor(id).seen, &model.actors[id.index()].seen);
            }
            // One body per delivery in flight — never more, never fewer.
            prop_assert_eq!(sim.bodies.len(), model.in_flight());
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn same_deliveries_same_stats_and_no_body_outlives_its_event(
                ops in proptest::collection::vec(op(), 0..60),
            ) {
                let (mut sim, mut model) = (real(), Model::new());
                assert_same(&sim, &model)?;
                for op in ops {
                    match op {
                        Op::Steps(n) => {
                            for _ in 0..n {
                                prop_assert_eq!(sim.step(), model.step());
                            }
                        }
                        Op::Pause(p) => {
                            sim.pause(ProcessId(p));
                            model.pause(ProcessId(p));
                        }
                        Op::Resume(p) => {
                            sim.resume(ProcessId(p));
                            model.resume(ProcessId(p));
                        }
                        Op::Crash(p) => {
                            sim.crash(ProcessId(p));
                            model.crash(ProcessId(p));
                        }
                        Op::Restart(p) => {
                            sim.restart(ProcessId(p));
                            model.restart(ProcessId(p));
                        }
                        Op::Inject(from, to, delay, msg) => {
                            let at = sim.now() + SimDuration::micros(delay);
                            sim.inject_at(at, ProcessId(from), ProcessId(to), msg);
                            model.push(at, ProcessId(to), 0, Some((from, msg)), 0);
                        }
                    }
                    assert_same(&sim, &model)?;
                }
                // Quiescence: whatever is still parked at a paused process
                // is all the slab may hold; crashing those drains it.
                while sim.step() {
                    prop_assert!(model.step());
                }
                prop_assert!(!model.step());
                assert_same(&sim, &model)?;
                let parked = sim.pause_buf.iter().flatten();
                let parked = parked.filter(|ev| matches!(ev.kind, EventKind::Deliver { .. }));
                prop_assert_eq!(sim.bodies.len(), parked.count());
                for p in sim.ids() {
                    sim.crash(p);
                    model.crash(p);
                }
                assert_same(&sim, &model)?;
                prop_assert_eq!(sim.bodies.len(), 0);
            }
        }

        #[test]
        fn crash_with_a_non_empty_pause_buffer_empties_the_slab() {
            let mut sim = real();
            sim.pause(ProcessId(2));
            for n in 0..5 {
                sim.inject_at(sim.now(), ProcessId(1), ProcessId(2), n);
            }
            sim.run_to_quiescence();
            assert!(sim.pause_buf[ProcessId(2).index()].len() >= 5);
            let parked = sim.bodies.len();
            assert!(parked >= 5, "buffered deliveries keep their bodies");
            let dropped = sim.stats().messages_dropped;
            sim.crash(ProcessId(2));
            assert_eq!(sim.bodies.len(), 0);
            assert_eq!(sim.stats().messages_dropped, dropped + parked as u64);
        }
    }

    #[test]
    fn per_link_extra_delay_is_timing_fault() {
        let mut sim = two(12);
        sim.set_link(
            ProcessId(1),
            ProcessId(2),
            LinkState {
                extra_delay: SimDuration::millis(100),
                ..Default::default()
            },
        );
        sim.run_until(SimTime::from_micros(50_000));
        assert_eq!(sim.actor(ProcessId(2)).pings, 0, "still in flight");
        sim.run_until(SimTime::from_micros(200_000));
        assert_eq!(sim.actor(ProcessId(2)).pings, 2);
    }
}
