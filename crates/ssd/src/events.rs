//! Deterministic discrete-event queue for the pipelined timing model.
//!
//! A thin wrapper over [`std::collections::BinaryHeap`] that imposes a
//! *total* order on events: primary key is the firing time, secondary key
//! is the push sequence number. `f64` timestamps are compared with
//! [`f64::total_cmp`], so even exact ties (and the NaN/-0.0 corner cases
//! a buggy caller could produce) order identically on every platform and
//! every run — the property the simulator's bit-identical-replay contract
//! rests on. Same-time events therefore pop in push order (FIFO), which
//! the event loop exploits to keep logical state evolution independent of
//! heap internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use flash_model::Micros;

/// One scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event<T> {
    /// Firing time.
    pub time: Micros,
    /// Push sequence number (unique per queue, monotonically increasing).
    pub seq: u64,
    /// Caller payload.
    pub payload: T,
}

/// Heap entry; `Ord` is reversed so the `BinaryHeap` max-heap behaves as
/// a min-heap on `(time, seq)`.
#[derive(Debug)]
struct Entry<T> {
    time: Micros,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.seq == other.seq && self.time.as_f64().total_cmp(&other.time.as_f64()).is_eq()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> Ordering {
        // Reversed: the earliest (time, seq) must be the heap maximum.
        other
            .time
            .as_f64()
            .total_cmp(&self.time.as_f64())
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-queue of timed events with deterministic `(time, seq)` ordering.
///
/// ```
/// use flash_model::Micros;
/// use ssd::events::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(Micros(5.0), "late");
/// q.push(Micros(1.0), "early");
/// q.push(Micros(1.0), "early-but-second");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-but-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`; returns its sequence number.
    /// Events pushed at the same time pop in push order.
    pub fn push(&mut self, time: Micros, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        seq
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|e| Event {
            time: e.time,
            seq: e.seq,
            payload: e.payload,
        })
    }

    /// Firing time of the next event, without removing it.
    pub fn peek_time(&self) -> Option<Micros> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[9.0, 2.0, 7.0, 1.0, 4.0] {
            q.push(Micros(t), t as u64);
        }
        let mut times = Vec::new();
        while let Some(ev) = q.pop() {
            times.push(ev.time.as_f64());
        }
        assert_eq!(times, vec![1.0, 2.0, 4.0, 7.0, 9.0]);
    }

    #[test]
    fn ties_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(Micros(10.0), i);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(popped, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn interleaved_ties_keep_per_time_fifo() {
        let mut q = EventQueue::new();
        // Two tied groups pushed interleaved: a0 b0 a1 b1 ...
        for i in 0..8u64 {
            q.push(Micros(1.0), ("a", i));
            q.push(Micros(2.0), ("b", i));
        }
        let popped: Vec<(&str, u64)> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let want: Vec<(&str, u64)> = (0..8)
            .map(|i| ("a", i))
            .chain((0..8).map(|i| ("b", i)))
            .collect();
        assert_eq!(popped, want);
    }

    #[test]
    fn seq_numbers_are_unique_and_monotone() {
        let mut q = EventQueue::new();
        let s0 = q.push(Micros(3.0), ());
        let s1 = q.push(Micros(1.0), ());
        assert!(s1 > s0);
        let first = q.pop().unwrap();
        assert_eq!(first.seq, s1); // earlier time wins despite later seq
        assert_eq!(q.pop().unwrap().seq, s0);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Micros(6.0), 'x');
        q.push(Micros(2.0), 'y');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Micros(2.0)));
        let _ = q.pop();
        assert_eq!(q.len(), 1);
    }
}
