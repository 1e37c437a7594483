//! The event queue at the heart of the simulator.
//!
//! Payloads live in a slot table: a `Vec` of slots, each recording the
//! sequence number of the event it holds, with freed slots reused from a
//! free list. A binary heap orders small `(time, seq, slot)` keys by
//! `(time, seq)`. The sequence number makes ordering *stable*: two events
//! scheduled for the same instant pop in the order they were scheduled,
//! which keeps simulations deterministic.
//!
//! Events can be cancelled by [`EventId`] (used for retransmission timers
//! that are disarmed when the ack arrives). An id names its slot and its
//! sequence number, so `cancel` is O(1) without hashing: it drops the
//! payload and frees the slot when the slot still holds that event, and
//! does nothing when the event already fired or was cancelled (even if the
//! slot has since been reused). The heap key stays behind and is skipped
//! on pop because its slot no longer holds its sequence number. Once such
//! stale keys outnumber live events by more than [`COMPACT_FLOOR`], a
//! cancel rebuilds the heap without them. A rebuild costs O(heap) and
//! follows at least `live` cancels, so cancel stays amortised O(1) and the
//! heap holds at most about `2 * live + COMPACT_FLOOR` keys. Pop order
//! depends only on the unique `(time, seq)` keys, so compaction never
//! changes it.
//!
//! [`EventQueue::pop_until`] pops the earliest event only if it is due by a
//! deadline, so a stepping loop needs no separate peek.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Stale heap keys tolerated beyond the live count before a cancel
/// compacts the heap.
const COMPACT_FLOOR: usize = 32;

/// Identifies a scheduled event so it can be cancelled later.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

/// One payload slot: the sequence number of the event it last held, and
/// the payload while that event is pending.
struct Slot<T> {
    seq: u64,
    payload: Option<T>,
}

impl<T> Slot<T> {
    /// True while this slot holds the pending event `seq`.
    fn holds(&self, seq: u64) -> bool {
        self.seq == seq && self.payload.is_some()
    }
}

/// A time-ordered, stable, cancellable event queue.
pub struct EventQueue<T> {
    /// `(time, seq, slot)` keys, earliest first; keys of cancelled events
    /// stay until they reach the top or the heap is compacted.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    last_popped: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns an id usable with
    /// [`EventQueue::cancel`].
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event: the
    /// simulation may not schedule into its own past.
    pub fn schedule(&mut self, time: SimTime, payload: T) -> EventId {
        assert!(
            time >= self.last_popped,
            "scheduling into the past: {time:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let filled = Slot {
            seq,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                self.slots.push(filled);
                u32::try_from(self.slots.len() - 1).expect("over 2^32 pending events")
            }
        };
        self.live += 1;
        self.heap.push(Reverse((time, seq, slot)));
        EventId { slot, seq }
    }

    /// Take the payload of event `seq` out of `slot` and free the slot, if
    /// the slot still holds that event.
    fn take(&mut self, slot: u32, seq: u64) -> Option<T> {
        let s = self.slots.get_mut(slot as usize)?;
        if s.seq != seq {
            return None;
        }
        let payload = s.payload.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(payload)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (not yet popped or cancelled). Cancelling an already
    /// fired event is a harmless no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.take(id.slot, id.seq).is_none() {
            return false;
        }
        if self.heap.len() - self.live > self.live + COMPACT_FLOOR {
            let slots = &self.slots;
            self.heap
                .retain(|&Reverse((_, seq, slot))| slots[slot as usize].holds(seq));
        }
        true
    }

    /// Remove and return the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some(Reverse((time, seq, slot))) = self.heap.pop() {
            if let Some(payload) = self.take(slot, seq) {
                self.last_popped = time;
                return Some((time, payload));
            }
        }
        None
    }

    /// Remove and return the earliest pending event if it fires at or
    /// before `deadline`; later events stay queued.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the next pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((time, seq, slot))) = self.heap.peek() {
            if self.slots[slot as usize].holds(seq) {
                return Some(time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The timestamp of the most recently popped event — the queue's notion
    /// of "now".
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a));
        // Re-scheduling still works.
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventId {
            slot: 999,
            seq: 999
        }));
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn stale_id_does_not_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert!(q.cancel(a));
        let b = q.schedule(t(1), "b");
        assert_eq!(a.slot, b.slot, "the freed slot is reused");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        let c = q.schedule(t(2), "c");
        assert_eq!(q.pop(), Some((t(1), "b")));
        // `b` fired; its slot goes to `d`, which a late cancel of `b` must
        // leave alone.
        let d = q.schedule(t(3), "d");
        assert_eq!(b.slot, d.slot);
        assert!(!q.cancel(b));
        assert!(q.cancel(c));
        assert_eq!(q.pop(), Some((t(3), "d")));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_until_leaves_later_events_queued() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.schedule(t(5), "c");
        q.cancel(a);
        assert_eq!(q.pop_until(t(4)), Some((t(2), "b")));
        assert_eq!(q.pop_until(t(4)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), t(2));
        assert_eq!(q.pop_until(t(5)), Some((t(5), "c")));
        assert_eq!(q.pop_until(t(9)), None);
    }

    /// Thousands of mixed operations against a naive `BTreeMap` keyed by
    /// `(time, seq)`: every result and every `len()` must agree. Times are
    /// drawn from a few values so ties are common, and cancels pick from
    /// every id ever issued, so stale ids (fired, cancelled, slot reused)
    /// are cancelled often. Seeds 8..12 are cancel-heavy: half of all
    /// operations are cancels and deadlines reach far ahead, so stale keys
    /// pile up and the heap must be compacted.
    #[test]
    fn differential_against_btreemap() {
        // Operation draws of the cancel-heavy seeds, mapped onto the arms
        // below: 3 schedules, 5 cancels, 1 `pop_until` and 1 peek in 10.
        const CANCEL_HEAVY: [u64; 10] = [0, 0, 0, 4, 4, 4, 4, 4, 7, 9];
        for seed in 0..12 {
            let heavy = seed >= 8;
            let spread = if heavy { 1_000 } else { 6 };
            let mut compactions = 0;
            let mut rng = SimRng::new(seed);
            let mut q = EventQueue::new();
            let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let mut issued: Vec<(EventId, SimTime, u64)> = Vec::new();
            let mut now = SimTime::ZERO;
            for step in 0..4_000u64 {
                let op = rng.below(10);
                match if heavy { CANCEL_HEAVY[op as usize] } else { op } {
                    0..=3 => {
                        let at = now + SimDuration::from_nanos(100 * rng.below(spread));
                        let id = q.schedule(at, step);
                        let seq = issued.len() as u64;
                        model.insert((at, seq), step);
                        issued.push((id, at, seq));
                    }
                    4 | 5 if !issued.is_empty() => {
                        // Cancel-heavy seeds mostly cancel recent timers,
                        // as an engine re-arming its timers does.
                        let n = issued.len() as u64;
                        let i = if heavy {
                            n - 1 - rng.below(n.min(8))
                        } else {
                            rng.below(n)
                        };
                        let (id, at, seq) = issued[i as usize];
                        let keys = q.heap.len();
                        assert_eq!(q.cancel(id), model.remove(&(at, seq)).is_some());
                        compactions += usize::from(q.heap.len() < keys);
                    }
                    6 => {
                        let want = model.pop_first().map(|((at, _), v)| (at, v));
                        assert_eq!(q.pop(), want);
                        if let Some((at, _)) = want {
                            now = at;
                        }
                    }
                    7 | 8 => {
                        let deadline = now + SimDuration::from_nanos(100 * rng.below(4));
                        let want = match model.first_key_value() {
                            Some((&(at, _), _)) if at <= deadline => {
                                model.pop_first().map(|((at, _), v)| (at, v))
                            }
                            _ => None,
                        };
                        assert_eq!(q.pop_until(deadline), want);
                        if let Some((at, _)) = want {
                            now = at;
                        }
                    }
                    _ => {
                        let want = model.first_key_value().map(|(&(at, _), _)| at);
                        assert_eq!(q.peek_time(), want);
                    }
                }
                assert_eq!(q.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(q.now(), now);
            }
            while let Some(((at, _), v)) = model.pop_first() {
                assert_eq!(q.pop(), Some((at, v)));
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
            assert!(!heavy || compactions > 0, "seed {seed}: never compacted");
        }
    }

    /// Timers armed and cancelled before they fire, as retransmission and
    /// watchdog timers are, must not leave their keys behind: after every
    /// step the heap holds at most about twice the live events, and a
    /// cancel that compacts keeps exactly the live keys.
    #[test]
    fn cancelled_keys_do_not_accumulate() {
        fn assert_bounded(q: &EventQueue<u64>) {
            let keys = q.heap.len();
            assert!(keys <= 2 * q.len() + COMPACT_FLOOR + 1, "{keys} keys");
        }
        fn cancel(q: &mut EventQueue<u64>, id: EventId) {
            let keys = q.heap.len();
            assert!(q.cancel(id));
            let after = q.heap.len();
            assert!(after == keys || after == q.len(), "{keys} -> {after} keys");
            assert_bounded(q);
        }
        let mut q = EventQueue::new();
        q.schedule(t(1_000_000), u64::MAX);
        // Re-armed timers: cancelling the oldest of eight frees a slot the
        // next timer reuses, so stale keys name slots that are live again.
        let mut armed = VecDeque::new();
        for i in 0..5_000u64 {
            if armed.len() == 8 {
                cancel(&mut q, armed.pop_front().unwrap());
            }
            armed.push_back(q.schedule(t(1_000 + i), i));
            assert_bounded(&q);
        }
        // Batches of 50 armed, then all cancelled: stale keys name slots
        // emptied but not yet reused.
        for i in 5_000..10_000u64 {
            if i % 50 == 0 {
                armed.drain(..).for_each(|id| cancel(&mut q, id));
            }
            armed.push_back(q.schedule(t(1_000 + i), i));
            assert_bounded(&q);
        }
        armed.drain(..).for_each(|id| cancel(&mut q, id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(1_000_000), u64::MAX)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.pop();
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }
}
