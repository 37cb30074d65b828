//! A closed-loop XPaxos client.

use std::collections::BTreeMap;

use qsel_detector::TimeoutPolicy;
use qsel_obs::{TraceEvent, TraceSink};
use qsel_simnet::{Context, SimDuration, SimTime, TimerId};
use qsel_types::{thresholds, ClusterConfig, ProcessId};

use crate::messages::{Reply, Request, XpMsg};

/// Retry timers are tagged with the op number so a timer armed for an
/// already-completed op dies silently instead of re-arming forever.
const TIMER_RETRY_BASE: u64 = 1000;

/// Retransmission back-off is capped at `initial × RETRY_CAP_FACTOR`.
const RETRY_CAP_FACTOR: u64 = 64;

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
    /// Matching replies for the in-flight op: result → replicas that
    /// reported it.
    tally: BTreeMap<u64, Vec<ProcessId>>,
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
            tally: BTreeMap::new(),
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
        ctx.set_timer(self.backoff.current(), TimerId(TIMER_RETRY_BASE + self.next_op));
    }

    fn on_reply(&mut self, ctx: &mut Context<'_, XpMsg>, from: ProcessId, reply: Reply) {
        if reply.op != self.next_op || self.next_op >= self.max_ops {
            return; // stale
        }
        let entry = self.tally.entry(reply.result).or_default();
        if !entry.contains(&from) {
            entry.push(from);
        }
        // f+1 matching replies guarantee at least one correct replica
        // executed the operation at this slot.
        if thresholds::reply_quorum_reached(self.cluster.f(), entry.len()) {
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

    #[test]
    #[should_panic(expected = "above the replica range")]
    fn client_id_collision_rejected() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let _ = Client::new(ProcessId(3), cfg, SimDuration::millis(5), 10);
    }
}
