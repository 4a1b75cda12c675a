//! The deterministic event queue.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use ringrt_units::{SimDuration, SimTime};

/// A future event: ordered by time, then by tie rank, then by insertion
/// sequence so that same-time events of one rank are FIFO.
struct Entry<E> {
    time: SimTime,
    rank: u8,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rank == other.rank && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with a built-in monotone clock.
///
/// The queue *is* the simulation clock: [`EventQueue::now`] is the
/// timestamp of the most recently popped event, and scheduling strictly in
/// the past is rejected. Events carrying equal timestamps pop by their tie
/// rank ([`EventQueue::schedule_ranked`]; [`EventQueue::schedule_at`] uses
/// rank 0), and events of one rank in the order they were scheduled,
/// making runs bit-for-bit reproducible.
///
/// # Examples
///
/// ```
/// use ringrt_des::EventQueue;
/// use ringrt_units::{SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_picos(10), "b");
/// q.schedule_at(SimTime::from_picos(10), "c");
/// q.schedule_at(SimTime::from_picos(5), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far (a cheap progress metric).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`EventQueue::now`] — an event in
    /// the past indicates a logic error in the model.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        self.schedule_ranked(time, 0, event);
    }

    /// Schedules `event` at absolute time `time` with tie rank `rank`:
    /// among events due at one instant, lower ranks pop first. A model
    /// whose same-instant order is a rule, not an accident of when each
    /// event was scheduled, states the rule this way.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`EventQueue::now`].
    pub fn schedule_ranked(&mut self, time: SimTime, rank: u8, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time} before the current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            rank,
            seq,
            event,
        });
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest pending event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap returned a past event");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Pops the earliest event only if it is due at or before `deadline`.
    /// The clock never advances past `deadline` through this method.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_picos(30), 3);
        q.schedule_at(SimTime::from_picos(10), 1);
        q.schedule_at(SimTime::from_picos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_picos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_pop_by_rank_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_picos(5);
        q.schedule_ranked(t, 2, "late a");
        q.schedule_ranked(t, 0, "first");
        q.schedule_ranked(t, 2, "late b");
        q.schedule_ranked(SimTime::from_picos(4), 9, "earlier time wins");
        q.schedule_at(t, "rank zero, scheduled last");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            [
                "earlier time wins",
                "first",
                "rank zero, scheduled last",
                "late a",
                "late b"
            ]
        );
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule_at(SimTime::from_picos(42), ());
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_picos(42));
        assert_eq!(q.now(), t);
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn schedule_after_uses_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_picos(100), "first");
        let _ = q.pop();
        q.schedule_after(SimDuration::from_picos(50), "second");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "second");
        assert_eq!(t, SimTime::from_picos(150));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_picos(100), ());
        let _ = q.pop();
        q.schedule_at(SimTime::from_picos(99), ());
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_picos(10), "early");
        q.schedule_at(SimTime::from_picos(100), "late");
        assert_eq!(q.pop_until(SimTime::from_picos(50)).unwrap().1, "early");
        assert!(q.pop_until(SimTime::from_picos(50)).is_none());
        // Clock did not advance past the deadline.
        assert_eq!(q.now(), SimTime::from_picos(10));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_picos(10), 1);
        let _ = q.pop();
        q.schedule_at(SimTime::from_picos(10), 2); // same instant: OK
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn clear_and_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_picos(10), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
