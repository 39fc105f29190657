//! Deterministic event ordering for the coordinator.
//!
//! Agents race: envelopes arrive on the shared uplink channel in
//! whatever order the OS scheduler produces. The coordinator never acts on
//! raw arrival order — every batch of envelopes is first pushed into an
//! [`EventQueue`] keyed by `(time, client_id, seq)` and drained in that
//! order. The key is built exclusively from simulated quantities (latency
//! draws, backoff, sender-side sequence numbers), so the drained sequence
//! is a pure function of the run seed and identical across reruns no
//! matter how the threads interleave.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One timestamped protocol event. `seq` is the *sender-side* monotone
/// counter stamped by the agent (a coordinator-assigned sequence would
/// re-introduce arrival-order nondeterminism).
#[derive(Debug)]
pub struct Event<T> {
    /// Simulated arrival time (seconds); must be finite.
    pub time: f64,
    /// Registry id of the sending client.
    pub client: usize,
    /// Sender-side per-agent monotone sequence number.
    pub seq: u64,
    /// The decoded protocol payload.
    pub payload: T,
}

impl<T> Event<T> {
    fn key(&self) -> (f64, usize, u64) {
        (self.time, self.client, self.seq)
    }
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (ta, ca, sa) = self.key();
        let (tb, cb, sb) = other.key();
        ta.total_cmp(&tb).then_with(|| ca.cmp(&cb)).then_with(|| sa.cmp(&sb))
    }
}

/// The backpressure error [`EventQueue::try_push`] returns when the queue
/// is at capacity: the event was **dropped**, and the caller must surface
/// that (the coordinator counts drops in `coord_event_queue_dropped_total`
/// and fails the round) rather than letting an unbounded queue absorb a
/// runaway producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured capacity that was exceeded.
    pub capacity: usize,
    /// The client whose event was dropped.
    pub client: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event queue at capacity {} — dropped an event from client {}",
            self.capacity, self.client
        )
    }
}

impl std::error::Error for QueueFull {}

/// Min-heap of [`Event`]s ordered by `(time, client, seq)`, with an
/// explicit capacity bound ([`EventQueue::bounded`]) so a runaway producer
/// turns into a [`QueueFull`] backpressure error instead of unbounded
/// memory growth.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<std::cmp::Reverse<Event<T>>>,
    capacity: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), capacity: usize::MAX }
    }

    /// A queue that holds at most `capacity` events at once.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "event queue capacity must be >= 1");
        Self { heap: BinaryHeap::new(), capacity }
    }

    /// The configured capacity (`usize::MAX` for [`EventQueue::new`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an event. Panics on non-finite timestamps — a NaN key would
    /// silently scramble `total_cmp` ordering and break run determinism —
    /// and on overflow of a bounded queue. Because of that overflow panic
    /// this is a convenience for tests and unbounded queues only: every
    /// coordinator-internal enqueue goes through [`EventQueue::try_push`],
    /// so a bounded queue at capacity surfaces
    /// `CoordError::EventQueueFull` (counted in
    /// `coord_event_queue_dropped_total`) instead of aborting the process.
    pub fn push(&mut self, time: f64, client: usize, seq: u64, payload: T) {
        self.try_push(time, client, seq, payload)
            .unwrap_or_else(|e| panic!("{e} (use try_push to handle backpressure)"));
    }

    /// Inserts an event, returning [`QueueFull`] — and dropping the event —
    /// when a bounded queue is at capacity. Panics on non-finite
    /// timestamps exactly like [`EventQueue::push`].
    pub fn try_push(
        &mut self,
        time: f64,
        client: usize,
        seq: u64,
        payload: T,
    ) -> Result<(), QueueFull> {
        assert!(time.is_finite(), "event time must be finite, got {time} from client {client}");
        if self.heap.len() >= self.capacity {
            return Err(QueueFull { capacity: self.capacity, client });
        }
        self.heap.push(std::cmp::Reverse(Event { time, client, seq, payload }));
        Ok(())
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|r| r.0)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains every queued event in `(time, client, seq)` order.
    pub fn drain_sorted(&mut self) -> Vec<Event<T>> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_by_time_then_client_then_seq() {
        let mut q = EventQueue::new();
        q.push(2.0, 0, 0, "late");
        q.push(1.0, 7, 1, "t1-c7");
        q.push(1.0, 3, 9, "t1-c3");
        q.push(1.0, 7, 0, "t1-c7-first");
        let order: Vec<&str> = q.drain_sorted().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, ["t1-c3", "t1-c7-first", "t1-c7", "late"]);
    }

    #[test]
    fn drain_order_is_insertion_invariant() {
        let events = [(3.5, 2, 0), (0.25, 9, 4), (3.5, 1, 2), (0.25, 9, 3), (1.0, 0, 0)];
        let mut fwd = EventQueue::new();
        let mut rev = EventQueue::new();
        for &(t, c, s) in &events {
            fwd.push(t, c, s, ());
        }
        for &(t, c, s) in events.iter().rev() {
            rev.push(t, c, s, ());
        }
        let a: Vec<_> = fwd.drain_sorted().iter().map(|e| (e.time, e.client, e.seq)).collect();
        let b: Vec<_> = rev.drain_sorted().iter().map(|e| (e.time, e.client, e.seq)).collect();
        assert_eq!(a, b);
        assert_eq!(a, [(0.25, 9, 3), (0.25, 9, 4), (1.0, 0, 0), (3.5, 1, 2), (3.5, 2, 0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_timestamps() {
        EventQueue::new().push(f64::NAN, 0, 0, ());
    }

    #[test]
    fn bounded_queue_rejects_overflow_and_keeps_contents() {
        let mut q = EventQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        q.try_push(1.0, 0, 0, "a").unwrap();
        q.try_push(2.0, 1, 0, "b").unwrap();
        let err = q.try_push(0.5, 7, 0, "dropped").unwrap_err();
        assert_eq!(err, QueueFull { capacity: 2, client: 7 });
        // the overflowing event was dropped; queued events are intact
        let order: Vec<&str> = q.drain_sorted().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, ["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "at capacity")]
    fn push_panics_on_bounded_overflow() {
        let mut q = EventQueue::bounded(1);
        q.push(1.0, 0, 0, ());
        q.push(1.0, 1, 0, ());
    }
}
