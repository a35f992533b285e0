//! A small discrete-event engine.
//!
//! The slotted model of the paper abstracts rendering into per-slot service;
//! the event engine supports the *latency-accurate* validation experiments,
//! where each frame is an event with an explicit completion time and we
//! measure true per-frame sojourn times rather than backlog proxies.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event scheduled at a simulation time.
#[derive(Debug, Clone, PartialEq)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

/// A time-ordered event queue. Ties in time break by insertion order
/// (FIFO), which keeps frame pipelines deterministic.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
    next_seq: u64,
    now: f64,
}

#[derive(Debug, Clone)]
struct HeapEntry<T>(Scheduled<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .time
            .partial_cmp(&other.0.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.0.seq.cmp(&other.0.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// The current simulation time (time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics when `time` is NaN or earlier than the current time (events
    /// cannot be scheduled in the past).
    pub fn schedule(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule in the past: {time} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(Reverse(HeapEntry(Scheduled { time, seq, payload })));
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let Reverse(HeapEntry(ev)) = self.heap.pop()?;
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
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
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), 3.0);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 1);
        q.schedule(5.0, 2);
        q.schedule(5.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(f64::from(i), i);
        }
        let mut last = -1.0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(4.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(7.0, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), 0.0, "scheduling must not advance the clock");
    }

    #[test]
    fn mm1_like_pipeline_sojourn() {
        // Frames arrive every 1.0, service takes 0.6: sojourn = 0.6 (no queueing).
        #[derive(Debug)]
        enum Ev {
            Arrival(u32),
            Departure(#[allow(dead_code)] u32, f64),
        }
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(f64::from(i), Ev::Arrival(i));
        }
        let mut server_free_at = 0.0f64;
        let mut sojourns = Vec::new();
        while let Some((t, ev)) = q.pop() {
            match ev {
                Ev::Arrival(id) => {
                    let start = server_free_at.max(t);
                    server_free_at = start + 0.6;
                    q.schedule(server_free_at, Ev::Departure(id, t));
                }
                Ev::Departure(_, arrived) => sojourns.push(q.now() - arrived),
            }
        }
        assert_eq!(sojourns.len(), 100);
        for s in sojourns {
            assert!((s - 0.6).abs() < 1e-9);
        }
    }
}
