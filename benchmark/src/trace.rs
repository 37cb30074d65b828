//! The traced run: every actor wrapped in a benchmark-side adapter that
//! records one in-memory span per callback and, per delivered message,
//! its kind and encoded length. Nothing here feeds an end-to-end metric.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use qsel_obs::metrics::standard_metrics;
use qsel_obs::replay::{analyze, parse_jsonl};
use qsel_obs::span::SpanReport;
use qsel_obs::{ReplayConfig, TraceSink};
use qsel_scenario::{compile_plan, FaultKind, Scenario};
use qsel_simnet::{Actor, Context, NetStats, Simulation, TimerId};
use qsel_types::crypto::SigTag;
use qsel_types::encode::encode_to_vec;
use qsel_types::ProcessId;
use qsel_xpaxos::harness::XpActor;
use qsel_xpaxos::messages::{DecidedEntry, XpMsg};

use crate::cells::{build_actors, cluster_config, drive, sim_counts, AsXp, Cell, Counts, Pipeline};

/// Which request a span belongs to, where the message exposes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqId {
    None,
    Op { client: u32, op: u64 },
    Slot(u64),
}

/// One recorded interval. `kind` is `XpMsg::kind()`, `"timer"`, `"start"`,
/// `"recover"`, or a pipeline stage name; `process` is 0 for stages.
#[derive(Clone, Debug)]
pub struct Span {
    pub kind: &'static str,
    pub process: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub req: ReqId,
}

/// Per message kind: deliveries and their summed `encode_to_vec` length.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wire {
    pub delivered: u64,
    pub bytes: u64,
}

/// The in-memory span and count store shared by all adapters of a run.
pub struct Recorder {
    epoch: Instant,
    replicas: u32,
    pub spans: Vec<Span>,
    /// The span new callback spans hang under (the `simnet.run` span).
    parent: Option<u32>,
    pub wire: BTreeMap<&'static str, Wire>,
    /// Distinct top-level signatures delivered: signatures made, as far as
    /// delivery shows them.
    tags: HashSet<SigTag>,
    /// Signed envelopes delivered, nested ones included: signatures a
    /// receiver that checks everything verifies.
    pub envelopes: u64,
    /// Time the adapters spent on the accounting above, inside the run
    /// span but in no callback span.
    pub accounting_ns: u64,
}

impl Recorder {
    pub fn new(replicas: u32) -> Self {
        Recorder {
            epoch: Instant::now(),
            replicas,
            spans: Vec::new(),
            parent: None,
            wire: BTreeMap::new(),
            tags: HashSet::new(),
            envelopes: 0,
            accounting_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn signatures(&self) -> u64 {
        self.tags.len() as u64
    }

    /// Records `work` as a stage span under the current parent; callback
    /// spans recorded meanwhile hang under it.
    pub fn stage<T>(
        this: &Rc<RefCell<Recorder>>,
        kind: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        let (id, outer) = {
            let mut r = this.borrow_mut();
            let id = r.spans.len() as u32;
            let start_ns = r.now_ns();
            let outer = r.parent;
            r.spans.push(Span {
                kind,
                process: 0,
                start_ns,
                end_ns: start_ns,
                parent: outer,
                req: ReqId::None,
            });
            r.parent = Some(id);
            (id, outer)
        };
        let out = work();
        let mut r = this.borrow_mut();
        r.spans[id as usize].end_ns = r.now_ns();
        r.parent = outer;
        out
    }

    /// The dotted span name: replica callbacks are `xpaxos.handle.<kind>` /
    /// `xpaxos.timer`, client callbacks `xpaxos.client.*`, stages verbatim.
    pub fn name(&self, s: &Span) -> String {
        if s.process == 0 {
            return s.kind.to_string();
        }
        let side = if s.process <= self.replicas {
            "xpaxos"
        } else {
            "xpaxos.client"
        };
        match s.kind {
            "timer" | "start" | "recover" => format!("{side}.{}", s.kind),
            kind => format!("{side}.handle.{kind}"),
        }
    }

    pub fn is_replica(&self, s: &Span) -> bool {
        (1..=self.replicas).contains(&s.process)
    }

    /// Renders at most `cap` spans, one JSON object per line, preceded by a
    /// header line with the totals.
    pub fn to_jsonl(&self, workload: &str, cap: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{},\"signatures\":{},\"signed_envelopes\":{}}}",
            self.spans.len(),
            self.spans.len().min(cap),
            self.signatures(),
            self.envelopes
        );
        for (kind, w) in &self.wire {
            let _ = writeln!(
                out,
                "{{\"count\":\"delivered\",\"kind\":\"{kind}\",\"messages\":{},\"encoded_bytes\":{}}}",
                w.delivered, w.bytes
            );
        }
        for (id, s) in self.spans.iter().enumerate().take(cap) {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"process\":{},\"start_ns\":{},\"end_ns\":{}",
                self.name(s),
                s.process,
                s.start_ns,
                s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            match s.req {
                ReqId::None => {}
                ReqId::Op { client, op } => {
                    let _ = write!(out, ",\"client\":{client},\"op\":{op}");
                }
                ReqId::Slot(slot) => {
                    let _ = write!(out, ",\"slot\":{slot}");
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

fn req_id(to: ProcessId, msg: &XpMsg) -> ReqId {
    match msg {
        XpMsg::Request(r) => ReqId::Op {
            client: r.client.0,
            op: r.op,
        },
        XpMsg::Reply(r) => ReqId::Op {
            client: to.0,
            op: r.op,
        },
        XpMsg::Prepare(p) => ReqId::Slot(p.payload.slot),
        XpMsg::Commit(c) => ReqId::Slot(c.payload.slot),
        XpMsg::Checkpoint(c) => ReqId::Slot(c.payload.slot),
        _ => ReqId::None,
    }
}

fn entry_envelopes(entries: &[DecidedEntry]) -> u64 {
    // A decided entry carries its prepare, and each commit embeds it again.
    entries.iter().map(|e| 1 + 2 * e.commits.len() as u64).sum()
}

/// The top-level signature of `msg`, if it is a signed message, and how
/// many signed envelopes it carries in total.
fn signatures_in(msg: &XpMsg) -> (Option<SigTag>, u64) {
    match msg {
        XpMsg::Prepare(s) => (Some(s.tag), 1),
        XpMsg::Commit(s) => (Some(s.tag), 2),
        XpMsg::ViewChange(s) => (Some(s.tag), 1 + s.payload.prepared.len() as u64),
        XpMsg::NewView(s) => (Some(s.tag), 1 + s.payload.reproposals.len() as u64),
        XpMsg::Update(s) => (Some(s.tag), 1),
        XpMsg::Heartbeat(s) => (Some(s.tag), 1),
        XpMsg::Checkpoint(s) => (Some(s.tag), 1),
        XpMsg::LazyUpdate { entries } | XpMsg::StateBatch { entries } => {
            (None, entry_envelopes(entries))
        }
        XpMsg::SyncInfo { checkpoint, .. } => {
            (None, checkpoint.as_ref().map_or(0, |c| c.sigs.len() as u64))
        }
        _ => (None, 0),
    }
}

/// The adapter: forwards every callback to `inner` and records it.
pub struct Traced<A> {
    inner: A,
    rec: Rc<RefCell<Recorder>>,
}

impl<A> Traced<A> {
    fn record(&mut self, ctx: &Context<'_, XpMsg>, kind: &'static str, req: ReqId, start_ns: u64) {
        let mut r = self.rec.borrow_mut();
        let end_ns = r.now_ns();
        let parent = r.parent;
        r.spans.push(Span {
            kind,
            process: ctx.me().0,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }
}

impl<A: AsXp> AsXp for Traced<A> {
    fn xp(&self) -> &XpActor {
        self.inner.xp()
    }
}

impl<A: Actor<XpMsg>> Actor<XpMsg> for Traced<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let start = self.rec.borrow().now_ns();
        self.inner.on_start(ctx);
        self.record(ctx, "start", ReqId::None, start);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, msg: XpMsg) {
        let kind = msg.kind();
        let req = req_id(ctx.me(), &msg);
        let start = {
            let mut r = self.rec.borrow_mut();
            let entered = r.now_ns();
            let w = r.wire.entry(kind).or_default();
            w.delivered += 1;
            w.bytes += encode_to_vec(&msg).len() as u64;
            let (tag, envelopes) = signatures_in(&msg);
            r.envelopes += envelopes;
            if let Some(tag) = tag {
                r.tags.insert(tag);
            }
            let start = r.now_ns();
            r.accounting_ns += start - entered;
            start
        };
        self.inner.on_message(ctx, from, msg);
        self.record(ctx, kind, req, start);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, XpMsg>, timer: TimerId) {
        let start = self.rec.borrow().now_ns();
        self.inner.on_timer(ctx, timer);
        self.record(ctx, "timer", ReqId::None, start);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, XpMsg>) {
        let start = self.rec.borrow().now_ns();
        self.inner.on_recover(ctx);
        self.record(ctx, "recover", ReqId::None, start);
    }
}

/// Follower lag and catch-up, polled after each driver slice.
#[derive(Debug, Default)]
struct Progress {
    /// Largest spread between the most and least advanced live replica.
    lag_slots_max: u64,
    /// Per scripted restart not yet caught up: (process, restart time,
    /// frontier it has to reach — set at the first slice after it).
    pending: Vec<(ProcessId, u64, Option<u64>)>,
    catchup_us_max: u64,
}

impl Progress {
    fn new(sc: &Scenario) -> Self {
        Progress {
            pending: sc
                .faults
                .iter()
                .filter_map(|f| match f.kind {
                    FaultKind::Restart(p) if p <= sc.cluster.n => {
                        Some((ProcessId(p), f.at_us, None))
                    }
                    _ => None,
                })
                .collect(),
            ..Progress::default()
        }
    }

    fn see<A: Actor<XpMsg> + AsXp>(&mut self, sim: &Simulation<XpMsg, A>, n: u32) {
        let now = sim.now().as_micros();
        let mark = |p: ProcessId| sim.actor(p).xp().replica().map(|r| r.log().watermark());
        let live = (1..=n)
            .map(ProcessId)
            .filter(|p| !sim.is_crashed(*p))
            .filter_map(mark);
        let (lo, hi) = (live.clone().min().unwrap_or(0), live.max().unwrap_or(0));
        self.lag_slots_max = self.lag_slots_max.max(hi - lo);
        self.pending.retain_mut(|(p, at_us, frontier)| {
            if now < *at_us {
                return true;
            }
            let target = *frontier.get_or_insert(hi);
            if mark(*p).is_some_and(|w| w >= target) {
                self.catchup_us_max = self.catchup_us_max.max(now - *at_us);
                false
            } else {
                true
            }
        });
    }

    /// Restarted replicas still behind when the run ended count up to it.
    fn finish(&mut self, end_us: u64) {
        for (_, at_us, _) in self.pending.drain(..) {
            self.catchup_us_max = self.catchup_us_max.max(end_us.saturating_sub(at_us));
        }
    }
}

/// Sums over the replicas of a finished run, read from public accessors.
#[derive(Clone, Debug, Default)]
pub struct ReplicaSums {
    pub executed_max: u64,
    pub decided_max: u64,
    pub state_transfers: u64,
    pub expectations_issued: u64,
    pub suspicions_raised: u64,
    pub false_suspicions: u64,
    pub quorums_issued: u64,
    pub epochs_entered: u64,
    pub updates: u64,
}

/// Whether the scenario itself makes `p` unresponsive at `t_us`: crashed,
/// paused, cut off by a partition or a dropped/degraded link, or played by
/// the adversary. A suspicion of such a process is not a false one.
fn disturbed(sc: &Scenario, p: u32, t_us: u64) -> bool {
    if sc.adversary.strategy.controls_a_process() && sc.adversary.process == p {
        return true;
    }
    let mut faults: Vec<_> = sc.faults.iter().collect();
    faults.sort_by_key(|f| f.at_us);
    let (mut down, mut cut) = (false, false);
    for f in faults.into_iter().take_while(|f| f.at_us <= t_us) {
        match &f.kind {
            FaultKind::Crash(q) | FaultKind::Pause(q) if *q == p => down = true,
            FaultKind::Restart(q) | FaultKind::Resume(q) if *q == p => down = false,
            FaultKind::Partition(group) => cut = !group.is_empty(),
            FaultKind::DropLink { from, to } | FaultKind::DegradeLink { from, to, .. }
                if *from == p || *to == p =>
            {
                cut = true
            }
            FaultKind::HealAll => cut = false,
            _ => {}
        }
    }
    down || cut
}

fn replica_sums<A: Actor<XpMsg> + AsXp>(sim: &Simulation<XpMsg, A>, sc: &Scenario) -> ReplicaSums {
    let mut s = ReplicaSums::default();
    for p in cluster_config(sc).processes() {
        let Some(r) = sim.actor(p).xp().replica() else {
            continue;
        };
        let stats = r.stats();
        s.executed_max = s.executed_max.max(stats.executed);
        s.decided_max = s.decided_max.max(stats.decided);
        s.state_transfers += stats.state_transfers;
        let fd = r.fd_stats();
        s.expectations_issued += fd.expectations_issued;
        s.suspicions_raised += fd.suspicions_raised;
        // The detector logs its first 256 expirations with time and peer.
        s.false_suspicions += fd
            .expiry_log
            .iter()
            .filter(|(t, peer, _)| !disturbed(sc, peer.0, t.as_micros()))
            .count() as u64;
        if let Some(qs) = r.quorum_selection() {
            let q = qs.stats();
            s.quorums_issued += q.quorums_issued;
            s.epochs_entered += q.epochs_entered;
            s.updates += q.updates_sent + q.updates_forwarded;
        }
    }
    s
}

/// What the `run_scenario` stages after the simulation produced, when the
/// traced run re-composes them (`observed`).
#[derive(Clone, Debug, Default)]
pub struct Observed {
    pub records: u64,
    pub export_s: f64,
    pub parse_s: f64,
    pub replay_s: f64,
    pub span_s: f64,
    /// p99 of each `qsel_obs::span::PHASES` phase, simulated µs.
    pub phase_p99_us: [u64; 6],
    pub violations: u64,
}

/// Everything one traced cell run yields besides the spans it appended.
pub struct CellTrace {
    pub counts: Counts,
    pub net: NetStats,
    pub sums: ReplicaSums,
    pub lag_slots_max: u64,
    pub catchup_us_max: u64,
    /// Wall time of the whole cell, and of `Simulation::run_until` in it.
    pub wall_s: f64,
    pub sim_s: f64,
    pub observed: Option<Observed>,
}

/// Re-runs `cell` with every actor wrapped. With `observed`, the trace
/// sink is the unbounded one and the remaining `run_scenario` stages run
/// after the simulation, each under its own span — what `league_traced`
/// does end to end; without, the sink stays disabled as in the untraced
/// simulation workloads.
pub fn trace_cell(
    cell: &Cell,
    pipeline: Pipeline,
    observed: bool,
    rec: &Rc<RefCell<Recorder>>,
) -> Result<CellTrace, String> {
    let sc = &cell.scenario;
    let cfg = cluster_config(sc);
    let sink = if observed {
        TraceSink::unbounded()
    } else {
        TraceSink::disabled()
    };
    let whole = Instant::now();
    Recorder::stage(rec, "scenario.run_scenario", || {
        let mut sim = Recorder::stage(rec, "scenario.build", || {
            let (scfg, actors) = build_actors(cell, &sink);
            let actors = actors
                .into_iter()
                .map(|inner| Traced {
                    inner,
                    rec: Rc::clone(rec),
                })
                .collect();
            let mut sim = Simulation::new(scfg, actors);
            sim.set_classifier(|m: &XpMsg| m.kind());
            sim.set_trace_sink(sink.clone());
            sim.schedule_plan(compile_plan(sc));
            sim
        });
        let mut progress = Progress::new(sc);
        let run = Instant::now();
        Recorder::stage(rec, "simnet.run", || {
            drive(&mut sim, sc, pipeline, |sim| progress.see(sim, cfg.n()));
        });
        let sim_s = run.elapsed().as_secs_f64();
        progress.finish(sim.now().as_micros());

        let observed = if observed {
            let mut o = Observed::default();
            let timed = |kind, secs: &mut f64, work: &mut dyn FnMut()| {
                let t = Instant::now();
                Recorder::stage(rec, kind, work);
                *secs = t.elapsed().as_secs_f64();
            };
            let mut jsonl = String::new();
            timed("obs.export", &mut o.export_s, &mut || {
                jsonl = sink.export_jsonl()
            });
            let mut records = Ok(Vec::new());
            timed("obs.parse", &mut o.parse_s, &mut || {
                records = parse_jsonl(&jsonl)
            });
            let records = records?;
            o.records = records.len() as u64;
            let last_fault_us = sc.faults.iter().map(|f| f.at_us).max().unwrap_or(0);
            let replay_cfg = ReplayConfig {
                f: cfg.f(),
                stable_from_micros: sc.run.stable_from_us.unwrap_or(last_fault_us),
            };
            timed("obs.replay", &mut o.replay_s, &mut || {
                o.violations = analyze(&records, &replay_cfg).violations.len() as u64;
            });
            timed("obs.span", &mut o.span_s, &mut || {
                let spans = SpanReport::build(&records);
                for (i, p99) in o.phase_p99_us.iter_mut().enumerate() {
                    *p99 = qsel_obs::metrics::percentile_sorted(&spans.phase_sorted(i), 99);
                }
                std::hint::black_box(spans.to_json(&sc.name, cell.seed));
            });
            Recorder::stage(rec, "obs.metrics", || {
                std::hint::black_box(standard_metrics(&records).render_json());
            });
            Some(o)
        } else {
            None
        };
        Ok(CellTrace {
            counts: sim_counts(&sim, sc),
            net: sim.stats().clone(),
            sums: replica_sums(&sim, sc),
            lag_slots_max: progress.lag_slots_max,
            catchup_us_max: progress.catchup_us_max,
            wall_s: whole.elapsed().as_secs_f64(),
            sim_s,
            observed,
        })
    })
}
