//! The trace sink: a cloneable recording handle with a zero-cost disabled
//! state.
//!
//! Every instrumented layer holds a [`TraceSink`]. All clones of one sink
//! share a single buffer and — crucially — a single ambient *now*: the
//! simulation driver stamps the current simulated time into the sink as
//! the clock advances, so sans-io modules (which have no clock access)
//! emit correctly-timestamped events without any API change.
//!
//! The default sink is [`TraceSink::disabled`]: `emit` takes a closure and
//! returns before calling it, so untraced runs pay one branch per emission
//! point and never construct an event. Tracing also never touches the
//! simulation's RNG, preserving the repo's determinism contract: enabling
//! a trace cannot change the run it observes.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::event::{TraceEvent, TraceRecord};

/// Buffering configuration for a [`TraceSink`].
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    /// `None` for an unbounded buffer; `Some(n)` for a ring that keeps the
    /// most recent `n` records (older records are dropped and counted).
    pub capacity: Option<usize>,
}

#[derive(Debug)]
struct TraceBuf {
    now_micros: u64,
    seq: u64,
    records: VecDeque<TraceRecord>,
    capacity: Option<usize>,
    dropped: u64,
}

/// A cloneable handle to a shared trace buffer (or to nothing, when
/// disabled). See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    inner: Option<Rc<RefCell<TraceBuf>>>,
}

impl TraceSink {
    /// The no-op sink: every operation returns immediately.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// A recording sink with the given buffering configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceSink {
            inner: Some(Rc::new(RefCell::new(TraceBuf {
                now_micros: 0,
                seq: 0,
                records: VecDeque::new(),
                capacity: cfg.capacity,
                dropped: 0,
            }))),
        }
    }

    /// A recording sink with an unbounded buffer.
    pub fn unbounded() -> Self {
        TraceSink::new(TraceConfig { capacity: None })
    }

    /// A recording sink keeping only the most recent `capacity` records.
    pub fn ring(capacity: usize) -> Self {
        TraceSink::new(TraceConfig {
            capacity: Some(capacity),
        })
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the ambient simulated time (microseconds) stamped onto
    /// subsequent emissions from *any* clone of this sink. Called by the
    /// simulation driver as its clock advances.
    #[inline]
    pub fn set_now(&self, micros: u64) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().now_micros = micros;
        }
    }

    /// Records the event built by `make` — or returns immediately if the
    /// sink is disabled, without calling `make`. The closure keeps event
    /// construction (string formatting, set materialization) entirely off
    /// the untraced path.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        let Some(buf) = &self.inner else { return };
        let mut buf = buf.borrow_mut();
        let record = TraceRecord {
            seq: buf.seq,
            t: buf.now_micros,
            event: make(),
        };
        buf.seq += 1;
        if let Some(cap) = buf.capacity {
            if buf.records.len() >= cap {
                buf.records.pop_front();
                buf.dropped += 1;
            }
        }
        buf.records.push_back(record);
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |b| b.borrow().records.len())
    }

    /// Whether the buffer is empty (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the ring buffer so far.
    pub fn dropped_records(&self) -> u64 {
        self.inner.as_ref().map_or(0, |b| b.borrow().dropped)
    }

    /// Total events emitted (buffered + evicted).
    pub fn emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |b| b.borrow().seq)
    }

    /// A copy of the buffered records, in emission order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |b| b.borrow().records.iter().cloned().collect())
    }

    /// Exports the buffered records as JSONL (one record per line, fixed
    /// field order — byte-identical across identical runs).
    pub fn export_jsonl(&self) -> String {
        let Some(buf) = &self.inner else {
            return String::new();
        };
        let buf = buf.borrow();
        let mut out = String::with_capacity(buf.records.len() * 80);
        for r in &buf.records {
            r.write_jsonl(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_never_builds_events() {
        let sink = TraceSink::disabled();
        assert!(!sink.enabled());
        sink.set_now(5);
        sink.emit(|| unreachable!("disabled sink must not call make()"));
        assert_eq!(sink.len(), 0);
        assert!(sink.export_jsonl().is_empty());
    }

    #[test]
    fn clones_share_buffer_and_clock() {
        let a = TraceSink::unbounded();
        let b = a.clone();
        a.set_now(42);
        b.emit(|| TraceEvent::Crash { p: 1 });
        a.emit(|| TraceEvent::Restart {
            p: 1,
            incarnation: 1,
        });
        let records = a.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].t, 42);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let sink = TraceSink::ring(2);
        for p in 1..=4u32 {
            sink.emit(|| TraceEvent::Crash { p });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped_records(), 2);
        assert_eq!(sink.emitted(), 4);
        let records = sink.records();
        assert!(matches!(records[0].event, TraceEvent::Crash { p: 3 }));
        assert!(matches!(records[1].event, TraceEvent::Crash { p: 4 }));
    }

    #[test]
    fn export_is_one_line_per_record() {
        let sink = TraceSink::unbounded();
        sink.emit(|| TraceEvent::Pause { p: 1 });
        sink.emit(|| TraceEvent::Resume { p: 1 });
        let text = sink.export_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }
}
