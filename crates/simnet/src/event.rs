//! Internal event-queue plumbing.

use std::cmp::Ordering;

use qsel_types::ProcessId;

use crate::time::SimTime;

/// Identifier an actor attaches to a timer it sets; returned verbatim in
/// [`Actor::on_timer`](crate::Actor::on_timer).
///
/// Actors that need cancellation semantics use fresh ids per logical timer
/// and ignore stale ones (generation pattern); the simulator never
/// interprets the value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// What a queued event does. A delivery names its message body by slab
/// slot, so the key the heap sifts stays small whatever `M` is.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind {
    Deliver { from: ProcessId, body: u32 },
    Timer { id: TimerId },
}

/// A queued event: everything but the message body (40 bytes).
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventKey {
    pub time: SimTime,
    pub seq: u64,
    pub to: ProcessId,
    /// Incarnation of `to` when the event was scheduled. Timers whose
    /// incarnation is stale at delivery are discarded: a restarted process
    /// must not observe timer callbacks armed by its previous life.
    /// Messages ignore this field — the network outlives crashes.
    pub inc: u32,
    pub kind: EventKind,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    /// Reversed so that `BinaryHeap` pops the *earliest* event; ties break
    /// on insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Message bodies of the deliveries in flight, addressed by the slot an
/// [`EventKind::Deliver`] carries. Vacated slots are reused, so the slab
/// grows to the most bodies ever in flight at once and no further.
#[derive(Debug)]
pub(crate) struct Slab<M> {
    bodies: Vec<Option<M>>,
    free: Vec<u32>,
}

impl<M> Slab<M> {
    pub fn new() -> Self {
        Slab {
            bodies: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `body`, returning its slot.
    pub fn insert(&mut self, body: M) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.bodies[slot as usize] = Some(body);
            return slot;
        }
        let slot = u32::try_from(self.bodies.len()).expect("more than 2^32 messages in flight");
        self.bodies.push(Some(body));
        slot
    }

    /// Removes and returns the body at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant: every delivery key owns exactly one
    /// body, so a vacant slot is a simulator bug.
    pub fn take(&mut self, slot: u32) -> M {
        let body = self.bodies[slot as usize]
            .take()
            .expect("delivery key names a vacant slab slot");
        self.free.push(slot);
        body
    }

    /// Bodies currently stored.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.bodies.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn key_stays_small() {
        assert!(std::mem::size_of::<EventKey>() <= 40);
    }

    #[test]
    fn heap_pops_earliest_first_then_fifo() {
        let mut heap: BinaryHeap<EventKey> = BinaryHeap::new();
        for (time, seq) in [(5u64, 0u64), (3, 1), (3, 2), (4, 3)] {
            heap.push(EventKey {
                time: SimTime::from_micros(time),
                seq,
                to: ProcessId(1),
                inc: 0,
                kind: EventKind::Timer { id: TimerId(seq) },
            });
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.time.as_micros(), e.seq))
            .collect();
        assert_eq!(order, vec![(3, 1), (3, 2), (4, 3), (5, 0)]);
    }

    #[test]
    fn slab_reuses_vacated_slots() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.take(a), "a");
        assert_eq!(slab.insert("c"), a, "the vacated slot is reused");
        assert_eq!(slab.take(b), "b");
        assert_eq!(slab.take(a), "c");
        assert_eq!(slab.len(), 0);
    }
}
