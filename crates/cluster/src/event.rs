//! Generic discrete-event calendar.
//!
//! Simulated time is `f64` seconds. Events carry a payload type chosen by
//! the simulation; ties are broken by insertion order so runs are fully
//! deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time in seconds.
pub type SimTime = f64;

struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap event queue over simulated time.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Creates an empty queue at time 0 with room for `cap` pending
    /// events, so a simulation whose in-flight event count is bounded
    /// (e.g. one per compute group) never reallocates in its hot loop.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
            now: 0.0,
        }
    }

    /// Reserves room for at least `extra` additional pending events.
    pub fn reserve(&mut self, extra: usize) {
        self.heap.reserve(extra);
    }

    /// Total number of events ever scheduled on this queue (the
    /// deterministic tie-break counter doubles as an event census).
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Current simulated time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`. Panics when scheduling
    /// into the past (events must not violate causality).
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        assert!(at.is_finite(), "non-finite event time");
        self.heap.push(Entry {
            time: at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedules `payload` after a delay from now.
    pub fn schedule_in(&mut self, delay: SimTime, payload: T) {
        assert!(delay >= 0.0, "negative delay");
        self.schedule(self.now + delay, payload);
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.payload)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
        q.schedule_in(2.5, ());
        assert_eq!(q.pop(), Some((7.5, ())));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_causality_violation() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(4.0, ());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        assert_eq!(q.now(), 0.0);
        q.schedule(1.0, "a");
        q.schedule(0.5, "b");
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.pop(), Some((0.5, "b")));
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.scheduled(), 2);
    }

    #[test]
    fn reserve_does_not_disturb_contents() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 2);
        q.reserve(1024);
        q.schedule(1.0, 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn len_tracks_pending() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
