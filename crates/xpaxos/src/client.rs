//! A closed-loop XPaxos client.

use qsel_detector::TimeoutPolicy;
use qsel_obs::{TraceEvent, TraceSink};
use qsel_simnet::{Context, SimDuration, SimTime, TimerId};
use qsel_types::{thresholds, ClusterConfig, ProcessId, ProcessSet};

use crate::messages::{Reply, Request, XpMsg};

/// Retry timers are tagged with the op number so a timer armed for an
/// already-completed op dies silently instead of re-arming forever.
const TIMER_RETRY_BASE: u64 = 1000;

/// Retransmission back-off is capped at `initial × RETRY_CAP_FACTOR`.
const RETRY_CAP_FACTOR: u64 = 64;

/// The replies to one operation: each distinct result with the replicas
/// that reported it. Clearing keeps the capacity, so a client reuses one
/// tally for all its operations.
#[derive(Debug, Default)]
pub(crate) struct ReplyTally(Vec<(u64, ProcessSet)>);

impl ReplyTally {
    /// Counts `replica`'s report of `result` and returns how many distinct
    /// replicas reported it. `replica` must be a replica of the cluster.
    pub(crate) fn record(&mut self, result: u64, replica: ProcessId) -> usize {
        let i = match self.0.iter().position(|(r, _)| *r == result) {
            Some(i) => i,
            None => {
                self.0.push((result, ProcessSet::new()));
                self.0.len() - 1
            }
        };
        let (_, replicas) = &mut self.0[i];
        replicas.insert(replica);
        replicas.len()
    }

    /// Forgets every report.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// A client that issues one request at a time, accepts a result once
/// `f + 1` replicas report the same one, then immediately issues the next
/// (closed loop). Requests are retransmitted to every replica on timeout,
/// with capped exponential back-off: every retransmission doubles the
/// retry interval (so a client facing a partition or a long view change
/// does not flood the network), and completed operations decay it back
/// toward the configured base interval.
#[derive(Debug)]
pub struct Client {
    me: ProcessId,
    cluster: ClusterConfig,
    backoff: TimeoutPolicy,
    max_ops: u64,
    next_op: u64,
    sent_at: SimTime,
    /// Replies to the in-flight op.
    tally: ReplyTally,
    /// (op, result, latency) for every completed operation.
    pub completed: Vec<(u64, u64, SimDuration)>,
    /// Retransmissions sent.
    pub retries: u64,
    trace: TraceSink,
}

impl Client {
    /// A client actor with id `me` (outside the replica id range) issuing
    /// up to `max_ops` operations. `retry` is the base retransmission
    /// interval; back-off caps at `retry × 64`.
    pub fn new(me: ProcessId, cluster: ClusterConfig, retry: SimDuration, max_ops: u64) -> Self {
        assert!(
            me.0 > cluster.n(),
            "client ids must lie above the replica range"
        );
        Client {
            me,
            cluster,
            backoff: TimeoutPolicy::new(retry, retry.saturating_mul(RETRY_CAP_FACTOR)),
            max_ops,
            next_op: 0,
            sent_at: SimTime::ZERO,
            tally: ReplyTally::default(),
            completed: Vec::new(),
            retries: 0,
            trace: TraceSink::disabled(),
        }
    }

    /// Installs a trace sink (typically a clone of the simulation's, so
    /// events carry the ambient simulated time).
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Completed operation count.
    pub fn committed_ops(&self) -> u64 {
        self.completed.len() as u64
    }

    /// Mean latency over completed ops, in microseconds.
    pub fn mean_latency_micros(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        let total: u64 = self.completed.iter().map(|(_, _, l)| l.as_micros()).sum();
        total as f64 / self.completed.len() as f64
    }

    fn current_request(&self) -> Request {
        Request {
            client: self.me,
            op: self.next_op,
            payload: self.next_op * 31 + u64::from(self.me.0),
        }
    }

    fn issue(&mut self, ctx: &mut Context<'_, XpMsg>) {
        self.tally.clear();
        self.sent_at = ctx.now();
        let req = self.current_request();
        // Broadcast to all replicas: quorum members forward to the leader
        // and arm mute-leader expectations (replica logic).
        for r in self.cluster.processes() {
            ctx.send(r, XpMsg::Request(req.clone()));
        }
        ctx.set_timer(
            self.backoff.current(),
            TimerId(TIMER_RETRY_BASE + self.next_op),
        );
    }

    fn on_reply(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, reply: Reply) {
        if reply.op != self.next_op || self.next_op >= self.max_ops {
            return; // stale
        }
        if !self.cluster.contains(from) {
            return; // only replicas count toward the reply quorum
        }
        // f+1 matching replies guarantee at least one correct replica
        // executed the operation at this slot.
        let matching = self.tally.record(reply.result, from);
        if thresholds::reply_quorum_reached(self.cluster.f(), matching) {
            let latency = ctx.now() - self.sent_at;
            self.completed.push((reply.op, reply.result, latency));
            self.trace.emit(|| TraceEvent::ClientCommit {
                client: self.me.0,
                op: reply.op,
                latency_us: latency.as_micros(),
            });
            // The system answered: let an inflated retry interval decay
            // back toward the base.
            self.backoff.record_success();
            self.next_op += 1;
            if self.next_op < self.max_ops {
                self.issue(ctx);
            }
        }
    }
}

impl qsel_simnet::Actor<XpMsg> for Client {
    fn on_start(&mut self, ctx: &mut Context<'_, XpMsg>) {
        if self.max_ops > 0 {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, msg: XpMsg) {
        if let XpMsg::Reply(r) = msg {
            self.on_reply(ctx, from, r);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, XpMsg>, timer: TimerId) {
        let TimerId(id) = timer;
        if id < TIMER_RETRY_BASE {
            return;
        }
        let op = id - TIMER_RETRY_BASE;
        if op == self.next_op && self.next_op < self.max_ops {
            // Still waiting on the in-flight op: retransmit with a doubled
            // (capped) interval.
            self.retries += 1;
            self.backoff.back_off();
            self.trace.emit(|| TraceEvent::ClientRetry {
                client: self.me.0,
                op,
                interval_us: self.backoff.current().as_micros(),
            });
            let req = self.current_request();
            for r in self.cluster.processes() {
                ctx.send(r, XpMsg::Request(req.clone()));
            }
            ctx.set_timer(self.backoff.current(), timer);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, XpMsg>) {
        // The retry timer died with the process; re-issue the in-flight
        // operation (replicas that already executed it re-send replies).
        if self.next_op < self.max_ops {
            self.issue(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_requires_id_above_replicas() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let c = Client::new(ProcessId(5), cfg, SimDuration::millis(5), 10);
        assert_eq!(c.committed_ops(), 0);
        assert_eq!(c.mean_latency_micros(), 0.0);
    }

    /// Two non-replicas (other clients) answer op 0 with a made-up result
    /// before any replica does: `f + 1 = 2` of them must not complete it,
    /// for either kind of client.
    #[test]
    fn replies_from_non_replicas_do_not_count() {
        use crate::harness::{ClusterBuilder, XpActor};
        use qsel_simnet::{SimTime, Simulation};

        let cfg = ClusterConfig::new(4, 1).unwrap();
        let completed_op0 = |sim: &Simulation<XpMsg, XpActor>| {
            let actor = sim.actor(ProcessId(5));
            let completed = match actor.client() {
                Some(c) => &c.completed,
                None => &actor.open_client().unwrap().completed,
            };
            completed
                .iter()
                .find(|(op, _, _)| *op == 0)
                .map(|&(_, result, _)| result)
        };
        for open_loop in [false, true] {
            let build = || {
                let builder = ClusterBuilder::new(cfg, 3).clients(3, 1);
                match open_loop {
                    true => builder.open_loop(SimDuration::millis(1)).build(),
                    false => builder.build(),
                }
            };
            let mut clean = build();
            clean.run_until(SimTime::from_micros(100_000));
            let executed = completed_op0(&clean).expect("op 0 commits");
            assert_ne!(executed, 999);

            let mut forged = build();
            let forged_reply = XpMsg::Reply(Reply {
                view: 0,
                op: 0,
                result: 999,
            });
            for from in [6, 7].map(ProcessId) {
                let at = SimTime::from_micros(1);
                forged.inject_at(at, from, ProcessId(5), forged_reply.clone());
            }
            forged.run_until(SimTime::from_micros(100_000));
            assert_eq!(
                completed_op0(&forged),
                Some(executed),
                "open loop: {open_loop}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "above the replica range")]
    fn client_id_collision_rejected() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let _ = Client::new(ProcessId(3), cfg, SimDuration::millis(5), 10);
    }
}
