//! Event queue.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! pending event. [`EventQueue`] keys events by `(time, sequence)` — the
//! monotonically increasing sequence number makes same-instant events pop
//! in FIFO scheduling order, which is what keeps runs deterministic
//! regardless of storage internals.
//!
//! The storage is a hierarchical timer wheel over a slab
//! (`crate::wheel`): pushes link a slab slot into a bucket list in O(1)
//! and pops are amortized O(1), replacing the binary heap's O(log n)
//! sifts that dominated the engine at million-flow scale. The heap lives
//! on as [`HeapEventQueue`] — same API, same semantics — serving as the
//! differential-test oracle and the benchmark baseline.
//!
//! Events also support *cancellation by token*: callers keep the
//! [`EventToken`] returned by [`EventQueue::schedule`] and may cancel it
//! (e.g. a retransmission timer disarmed by an ACK).
//!
//! # Cancellation
//!
//! A token names the slab slot its event occupies and the slot's
//! generation at scheduling time. Firing or cancelling an event bumps the
//! generation and frees the slot for reuse, so a stale token (its event
//! already fired or cancelled, perhaps with the slot since reused) is a
//! generation mismatch and a no-op. A live token's cancel unlinks the
//! event from its bucket in O(1): the queue never stores a dead entry, so
//! [`EventQueue::len`] is simply the slab's live count, and the slab stays
//! sized to the maximum number of *outstanding* events, not the run
//! length.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// Opaque handle identifying a scheduled event, for cancellation. Carries
/// the event's slot index and the slot generation at scheduling time; the
/// token is *dead* (cancel is a no-op) once the event fires or is
/// cancelled, because either bumps the slot generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken {
    slot: u32,
    generation: u64,
}

impl EventToken {
    /// A token that never matches a real event.
    pub const NONE: EventToken = EventToken {
        slot: u32::MAX,
        generation: u64::MAX,
    };
}

/// An event with its scheduled time and FIFO tie-break sequence, as stored
/// by [`HeapEventQueue`].
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    seq: u64,
    slot: u32,
    generation: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic priority queue of simulation events, backed by a
/// hierarchical timer wheel.
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    cancelled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            cancelled: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event, monotonically non-decreasing.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events. Exact: cancelled events
    /// are unlinked at once, and cancelling an already-fired token is a
    /// generation mismatch that changes nothing.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped so far (for engine benchmarking).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Total events ever scheduled.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Total cancels that removed a pending event (no-op cancels of dead
    /// tokens are not counted). `scheduled() == popped() + cancelled() +
    /// len()` at all times.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; debug builds assert, release
    /// builds clamp to `now` so the simulation still makes progress.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, generation) = self.wheel.insert(at, seq, event);
        EventToken { slot, generation }
    }

    /// Schedule `event` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: crate::Duration, event: E) -> EventToken {
        self.schedule(self.now + delay, event)
    }

    /// Schedule a batch of events at one shared timestamp, in iterator
    /// order (they will fire FIFO). No tokens are returned — use
    /// [`Self::schedule`] for events that may be cancelled.
    pub fn schedule_all<I>(&mut self, at: SimTime, events: I)
    where
        I: IntoIterator<Item = E>,
    {
        for event in events {
            self.schedule(at, event);
        }
    }

    /// Cancel a previously scheduled event. Safe to call with a token that
    /// has already fired or been cancelled (generation mismatch, no effect)
    /// or with [`EventToken::NONE`].
    pub fn cancel(&mut self, token: EventToken) {
        if self.wheel.remove(token.slot, token.generation) {
            self.cancelled += 1;
        }
    }

    /// Pop the earliest pending event, advancing `now` to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.wheel.pop()?;
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.popped += 1;
        Some((time, event))
    }

    /// Timestamp of the next pending event without popping it. `&mut`
    /// because it may refill the wheel's front.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Audit support: the number of events reachable by walking every
    /// container of the wheel (front, bucket lists, spill). Equals
    /// [`Self::len`] unless the wheel's links are corrupt. O(pending + 1024).
    #[doc(hidden)]
    pub fn reachable(&self) -> usize {
        self.wheel.reachable()
    }

    /// Test support: pin a slot's generation stamp directly, to exercise
    /// wrap-around without 2^64 organic reuses. Not for production use.
    #[doc(hidden)]
    pub fn force_generation(&mut self, slot: u32, generation: u64) {
        self.wheel.force_generation(slot, generation);
    }

    /// Test support: overwrite the cancelled-event counter, to prove an
    /// audit of `scheduled == popped + cancelled + len` is live. Not for
    /// production use.
    #[doc(hidden)]
    pub fn force_cancelled(&mut self, cancelled: u64) {
        self.cancelled = cancelled;
    }
}

/// The original `BinaryHeap`-backed queue, kept as the reference
/// implementation: the differential property suite drives it in lockstep
/// with [`EventQueue`], and the microbenchmark uses it as the wheel's
/// baseline. Semantics are identical — `(time, seq)` total order,
/// generation-stamped O(1) cancellation, eager head pruning, exact
/// `len()`/`popped()`.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
    /// Current generation of each slot. An event in the heap is live iff
    /// its stamped generation equals its slot's entry here.
    generations: Vec<u64>,
    /// Slots whose event has fired or been cancelled, available for reuse.
    free_slots: Vec<u32>,
    /// Cancelled events still physically in the heap (below the head).
    /// `len()` subtracts this, so the count is exact at all times.
    cancelled_in_heap: usize,
    popped: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Create an empty queue at t = 0.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            generations: Vec::new(),
            free_slots: Vec::new(),
            cancelled_in_heap: 0,
            popped: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (monotonically non-decreasing).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events. Exact.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled_in_heap
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` at absolute time `at` (clamped to `now`).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.generations.push(0);
                (self.generations.len() - 1) as u32
            }
        };
        let generation = self.generations[slot as usize];
        self.heap.push(ScheduledEvent {
            time: at,
            seq,
            slot,
            generation,
            event,
        });
        EventToken { slot, generation }
    }

    /// Schedule `event` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: crate::Duration, event: E) -> EventToken {
        self.schedule(self.now + delay, event)
    }

    /// Cancel a previously scheduled event (generation-checked no-op for
    /// fired/cancelled/[`EventToken::NONE`] tokens).
    pub fn cancel(&mut self, token: EventToken) {
        let s = token.slot as usize;
        if s >= self.generations.len() || self.generations[s] != token.generation {
            return;
        }
        self.generations[s] = self.generations[s].wrapping_add(1);
        self.free_slots.push(token.slot);
        self.cancelled_in_heap += 1;
        self.prune_cancelled_head();
    }

    #[inline]
    fn is_live(&self, slot: u32, generation: u64) -> bool {
        self.generations[slot as usize] == generation
    }

    fn prune_cancelled_head(&mut self) {
        while let Some(head) = self.heap.peek() {
            if self.is_live(head.slot, head.generation) {
                break;
            }
            self.heap.pop();
            self.cancelled_in_heap -= 1;
        }
    }

    /// Pop the earliest pending event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(ev) = self.heap.pop() {
            if !self.is_live(ev.slot, ev.generation) {
                debug_assert!(false, "cancelled event at heap head");
                self.cancelled_in_heap -= 1;
                continue;
            }
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.generations[ev.slot as usize] = self.generations[ev.slot as usize].wrapping_add(1);
            self.free_slots.push(ev.slot);
            self.now = ev.time;
            self.popped += 1;
            self.prune_cancelled_head();
            return Some((ev.time, ev.event));
        }
        None
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|head| {
            debug_assert!(self.is_live(head.slot, head.generation));
            head.time
        })
    }

    /// Test support: pin a slot's generation stamp directly (see
    /// [`EventQueue::force_generation`]).
    #[doc(hidden)]
    pub fn force_generation(&mut self, slot: u32, generation: u64) {
        self.generations[slot as usize] = generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.schedule(SimTime::from_nanos(10), ());
        q.schedule(SimTime::from_nanos(40), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, SimTime::from_nanos(40));
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let _a = q.schedule(SimTime::from_nanos(1), "keep1");
        let b = q.schedule(SimTime::from_nanos(2), "drop");
        let _c = q.schedule(SimTime::from_nanos(3), "keep2");
        q.cancel(b);
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["keep1", "keep2"]);
    }

    #[test]
    fn cancel_fired_token_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1u32);
        assert!(q.pop().is_some());
        q.cancel(a); // already fired
        q.schedule(SimTime::from_nanos(2), 2u32);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn cancel_fired_token_keeps_len_exact() {
        // The old HashSet design overcounted here: a token cancelled after
        // its event fired sat in the cancelled set forever.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert!(q.pop().is_some());
        q.cancel(a); // fired; must not disturb the count
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert!(q.pop().is_some());
        assert!(q.is_empty());
        q.cancel(a); // double-cancel of a dead token: still a no-op
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.cancel(EventToken::NONE);
        q.schedule(SimTime::from_nanos(1), 7);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(5), "old");
        q.cancel(a);
        // Reuses the slot a freed; its generation was bumped, so the new
        // token must be distinct and the old event must stay dead.
        let b = q.schedule(SimTime::from_nanos(1), "new");
        assert_ne!(a, b);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("new"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_after_uses_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "base");
        q.pop();
        q.schedule_after(Duration::from_nanos(50), "later");
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_nanos(150)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        q.cancel(a);
        // The cancelled head was unlinked, not left for peek to skip.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn peek_time_sees_buried_cancellation() {
        // Cancel an event that is NOT the head: it is unlinked from the
        // middle of the queue, so peek_time after the head pops skips it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), "head");
        let buried = q.schedule(SimTime::from_nanos(2), "buried");
        q.schedule(SimTime::from_nanos(3), "tail");
        q.cancel(buried);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("head"));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        let t = q.schedule(SimTime::from_nanos(1), ());
        assert_eq!(q.len(), 1);
        q.cancel(t);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn late_cancel_after_reuse_cannot_kill_the_new_event() {
        // The nasty ordering: an event fires, its slot is reused by a new
        // event, and only then does the stale token's cancel arrive. The
        // fired pop bumped the generation, so the late cancel must miss
        // the reused slot and len() must stay exact.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        assert!(q.pop().is_some());
        let b = q.schedule(SimTime::from_nanos(2), "b");
        assert_eq!(b.slot, a.slot, "test premise: b reuses a's slot");
        q.cancel(a);
        assert_eq!(q.len(), 1, "late cancel must not touch the reused slot");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn generation_stamps_survive_slot_reuse_near_u64_boundary() {
        // Generations bump with wrapping_add, so the interesting edge is
        // the wrap itself: tokens stamped MAX-1 and MAX must die on
        // fire/cancel, and the post-wrap stamp (0) must not resurrect
        // them. Reaching u64::MAX takes 2^64 reuses organically; pin the
        // slot's stamp directly.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "seed");
        q.cancel(a); // slot 0 freed
        q.force_generation(0, u64::MAX - 1);
        let b = q.schedule(SimTime::from_nanos(2), "near-max");
        assert_eq!(b.generation, u64::MAX - 1);
        q.cancel(b); // bumps to u64::MAX
        assert!(q.is_empty());
        let c = q.schedule(SimTime::from_nanos(3), "at-max");
        assert_eq!(c.generation, u64::MAX);
        q.cancel(b); // stale token from the previous generation: no-op
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("at-max"));
        // c fired across the wrap (MAX -> 0); its token is dead and the
        // recycled slot stamps the wrapped generation on the next event.
        let d = q.schedule(SimTime::from_nanos(4), "wrapped");
        assert_eq!(d.generation, 0);
        assert_ne!(c, d);
        q.cancel(c); // dead pre-wrap token: no-op on the live event
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("wrapped"));
        assert!(q.is_empty());
    }

    #[test]
    fn heavy_cancel_churn_stays_consistent() {
        // Timer-like workload: schedule, cancel half, fire the rest, reuse
        // slots continuously. len() must track exactly throughout.
        let mut q = EventQueue::new();
        let mut live = 0usize;
        let mut tokens = Vec::new();
        for round in 0u64..50 {
            for i in 0..20 {
                let tok = q.schedule(SimTime::from_nanos(round * 100 + i + 1), (round, i));
                tokens.push(tok);
                live += 1;
            }
            // Cancel every other token from this round.
            for tok in tokens.drain(..).step_by(2) {
                q.cancel(tok);
                live -= 1;
            }
            assert_eq!(q.len(), live);
            // Fire half of what remains.
            for _ in 0..5 {
                if q.pop().is_some() {
                    live -= 1;
                }
            }
            assert_eq!(q.len(), live);
        }
        while q.pop().is_some() {
            live -= 1;
        }
        assert_eq!(live, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_cancel_after_a_pop_skips_the_victim() {
        // A handler for the first event of a tick cancels the second (the
        // classic same-tick RTO re-arm): the next pop must return the third,
        // at the same instant, and every counter must agree.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        q.schedule(t, "a");
        let b = q.schedule(t, "b");
        q.schedule(t, "c");
        assert_eq!(q.pop(), Some((t, "a")));
        q.cancel(b);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), t);
        assert_eq!((q.scheduled(), q.popped(), q.cancelled()), (3, 2, 1));
    }

    #[test]
    fn schedule_all_bulk_insert_is_fifo_and_cancellable_around() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(5), 100);
        q.schedule_all(SimTime::from_nanos(5), 0..4);
        q.schedule_all(SimTime::from_nanos(3), 50..52);
        assert_eq!(q.len(), 7);
        q.cancel(a);
        assert_eq!(q.len(), 6);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![50, 51, 0, 1, 2, 3]);
        assert_eq!(q.popped(), 6);
    }

    #[test]
    fn schedule_all_into_the_front_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(200), 0);
        q.schedule(SimTime::from_nanos(203), 9);
        assert!(q.pop().is_some()); // front now holds 203, limit 208
        q.schedule_all(SimTime::from_nanos(200), 1..3);
        q.schedule_all(SimTime::from_nanos(200), 3..5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 9]);
    }

    #[test]
    fn wheel_and_heap_agree_on_a_mixed_workload() {
        // Inline differential smoke (the full proptest lives in
        // tests/prop_wheel.rs): identical op sequences must yield
        // identical observable state at every step.
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut rng = 0x243f6a8885a308d3u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut tokens: Vec<(EventToken, EventToken)> = Vec::new();
        for i in 0..5_000u64 {
            match next() % 10 {
                0..=4 => {
                    let horizon = match next() % 8 {
                        0 => 3_000_000_000, // spill
                        1..=2 => 2_000_000, // mid wheel
                        _ => 2_000,         // near
                    };
                    let at = SimTime::from_nanos(w.now().as_nanos() + next() % horizon);
                    let tw = w.schedule(at, i);
                    let th = h.schedule(at, i);
                    tokens.push((tw, th));
                }
                5..=6 => {
                    if !tokens.is_empty() {
                        let k = (next() as usize) % tokens.len();
                        let (tw, th) = tokens.swap_remove(k);
                        w.cancel(tw);
                        h.cancel(th);
                    }
                }
                _ => {
                    assert_eq!(w.pop(), h.pop());
                }
            }
            assert_eq!(w.len(), h.len());
            assert_eq!(w.popped(), h.popped());
            assert_eq!(w.peek_time(), h.peek_time());
            assert_eq!(w.now(), h.now());
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
