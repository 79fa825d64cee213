//! Tx queues and the NIC's transmit arbiter.
//!
//! Each sender core enqueues its (post-TSO) frames on its own hardware Tx
//! queue; the NIC serves the queues in round-robin. With one active flow
//! the wire carries long same-flow runs (GRO merges them back into 64KB
//! skbs at the receiver); with many flows on *different* cores the arbiter
//! interleaves them frame-by-frame, which — together with shrinking
//! per-flow windows — is what starves GRO of batching opportunities as the
//! paper's all-to-all experiment scales (§3.5, Fig. 8c).
//!
//! Round-robin service is O(1) in the number of queues: like a NIC's
//! doorbell register, the arbiter keeps one bit per queue that is set
//! while the queue holds frames, and a dequeue takes the first set bit at
//! or after the round-robin pointer (wrapping) with `trailing_zeros`
//! instead of probing every idle queue in turn. The service order is
//! exactly that of the probe-every-queue walk.

use std::collections::VecDeque;

/// A frame queued for transmission: `(payload_bytes, tag)`. The tag is an
/// opaque handle the stack uses to recover the segment on dequeue.
pub type QueuedFrame<T> = (u32, T);

/// Round-robin transmit arbiter over per-core Tx queues.
#[derive(Debug)]
pub struct TxArbiter<T> {
    queues: Vec<VecDeque<QueuedFrame<T>>>,
    /// Doorbell bitmap: bit `q` is set exactly while queue `q` is
    /// non-empty.
    doorbells: Vec<u64>,
    /// Next queue to serve (round-robin pointer).
    next: usize,
    /// Total frames currently queued.
    queued: usize,
    /// Per-queue byte depth limit (BQL-ish); pushes beyond it are rejected
    /// so the qdisc layer keeps the backlog instead.
    byte_limit: u64,
    depths: Vec<u64>,
}

impl<T> TxArbiter<T> {
    /// Arbiter over `queues` hardware queues with a per-queue byte limit.
    pub fn new(queues: usize, byte_limit: u64) -> Self {
        assert!(queues > 0);
        TxArbiter {
            queues: (0..queues).map(|_| VecDeque::new()).collect(),
            doorbells: vec![0; queues.div_ceil(64)],
            next: 0,
            queued: 0,
            byte_limit,
            depths: vec![0; queues],
        }
    }

    /// Try to enqueue a frame on `queue`. Returns `false` when the queue is
    /// over its byte limit (caller keeps the frame in qdisc backlog).
    pub fn enqueue(&mut self, queue: usize, payload: u32, tag: T) -> bool {
        if self.depths[queue] + payload as u64 > self.byte_limit {
            return false;
        }
        self.queues[queue].push_back((payload, tag));
        self.depths[queue] += payload as u64;
        self.queued += 1;
        self.doorbells[queue / 64] |= 1 << (queue % 64);
        true
    }

    /// Enqueue a run of frames on `queue` in one call — the TSO path
    /// splits a 64KB write into dozens of MTU frames that all target the
    /// sender core's queue, so the queue/depth lookups are hoisted out of
    /// the per-frame loop. Each frame is still byte-limit checked
    /// individually (identical to calling [`Self::enqueue`] per frame);
    /// returns how many were accepted.
    pub fn enqueue_all<I>(&mut self, queue: usize, frames: I) -> usize
    where
        I: IntoIterator<Item = QueuedFrame<T>>,
    {
        let q = &mut self.queues[queue];
        let depth = &mut self.depths[queue];
        let mut accepted = 0;
        for (payload, tag) in frames {
            if *depth + payload as u64 > self.byte_limit {
                continue; // caller keeps rejected frames in qdisc backlog
            }
            q.push_back((payload, tag));
            *depth += payload as u64;
            accepted += 1;
        }
        if accepted > 0 {
            self.queued += accepted;
            self.doorbells[queue / 64] |= 1 << (queue % 64);
        }
        accepted
    }

    /// First non-empty queue at or after the round-robin pointer, wrapping
    /// around past the last queue.
    #[inline]
    fn next_active(&self) -> Option<usize> {
        let w = self.next / 64;
        let ahead = self.doorbells[w] & (!0u64 << (self.next % 64));
        if ahead != 0 {
            return Some(w * 64 + ahead.trailing_zeros() as usize);
        }
        // Later words, then wrap to the start (word `w` again last: only
        // its bits below `next` can be set by now).
        (w + 1..self.doorbells.len())
            .chain(0..=w)
            .find(|&i| self.doorbells[i] != 0)
            .map(|i| i * 64 + self.doorbells[i].trailing_zeros() as usize)
    }

    /// Dequeue the next frame in round-robin order.
    pub fn dequeue(&mut self) -> Option<QueuedFrame<T>> {
        let q = self.next_active()?;
        let frame = self.queues[q]
            .pop_front()
            .expect("doorbell bit set on an empty queue");
        if self.queues[q].is_empty() {
            self.doorbells[q / 64] &= !(1 << (q % 64));
        }
        self.depths[q] -= frame.0 as u64;
        self.queued -= 1;
        self.next = if q + 1 == self.queues.len() { 0 } else { q + 1 };
        Some(frame)
    }

    /// Frames queued across all queues.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Number of hardware queues.
    pub fn queues(&self) -> usize {
        self.queues.len()
    }

    /// Bytes queued on one queue.
    pub fn queue_depth(&self, queue: usize) -> u64 {
        self.depths[queue]
    }

    /// Frames queued on one queue.
    pub fn queue_len(&self, queue: usize) -> usize {
        self.queues[queue].len()
    }

    /// Whether `queue`'s doorbell bit is set (it should be exactly while
    /// the queue is non-empty; the invariant auditor checks that).
    pub fn doorbell(&self, queue: usize) -> bool {
        self.doorbells[queue / 64] & (1 << (queue % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference arbiter: probes every queue in turn from the round-robin
    /// pointer, exactly as a NIC without a doorbell register would.
    struct NaiveRoundRobin {
        queues: Vec<VecDeque<QueuedFrame<u32>>>,
        next: usize,
        byte_limit: u64,
    }

    impl NaiveRoundRobin {
        fn new(queues: usize, byte_limit: u64) -> Self {
            NaiveRoundRobin {
                queues: vec![VecDeque::new(); queues],
                next: 0,
                byte_limit,
            }
        }

        fn depth(&self, queue: usize) -> u64 {
            self.queues[queue].iter().map(|&(p, _)| p as u64).sum()
        }

        fn enqueue(&mut self, queue: usize, payload: u32, tag: u32) -> bool {
            if self.depth(queue) + payload as u64 > self.byte_limit {
                return false;
            }
            self.queues[queue].push_back((payload, tag));
            true
        }

        fn dequeue(&mut self) -> Option<QueuedFrame<u32>> {
            let n = self.queues.len();
            for _ in 0..n {
                let q = self.next;
                self.next = (self.next + 1) % n;
                if let Some(frame) = self.queues[q].pop_front() {
                    return Some(frame);
                }
            }
            None
        }

        fn len(&self) -> usize {
            self.queues.iter().map(VecDeque::len).sum()
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Enqueue(usize, u32),
        EnqueueAll(usize, Vec<u32>),
        Dequeue(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Queue indices are drawn wide and reduced modulo the queue count
        // of the case; dequeue runs are weighted up so queues drain (and
        // their doorbell bits clear) as often as they fill.
        prop_oneof![
            (0usize..1024, 1u32..1500).prop_map(|(q, p)| Op::Enqueue(q, p)),
            (0usize..1024, collection::vec(1u32..1500, 0..12))
                .prop_map(|(q, ps)| Op::EnqueueAll(q, ps)),
            (1usize..8).prop_map(Op::Dequeue),
            (1usize..8).prop_map(Op::Dequeue),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The doorbell arbiter serves exactly the frames, in exactly the
        /// order, of the probe-every-queue reference — across one-word,
        /// exactly-one-word, just-past-a-word and multi-word bitmaps, and
        /// through round-robin wrap-around — with finite byte limits so
        /// rejected enqueues are covered too.
        #[test]
        fn doorbell_arbiter_matches_naive_round_robin(
            queues in prop_oneof![Just(1usize), Just(24), Just(64), Just(65), Just(130)],
            byte_limit in 1u64..6000,
            ops in collection::vec(op_strategy(), 1..400),
        ) {
            let mut fast: TxArbiter<u32> = TxArbiter::new(queues, byte_limit);
            let mut naive = NaiveRoundRobin::new(queues, byte_limit);
            let mut tag = 0u32;
            for op in ops {
                match op {
                    Op::Enqueue(q, payload) => {
                        let q = q % queues;
                        tag += 1;
                        prop_assert_eq!(fast.enqueue(q, payload, tag), naive.enqueue(q, payload, tag));
                    }
                    Op::EnqueueAll(q, payloads) => {
                        let q = q % queues;
                        let frames: Vec<QueuedFrame<u32>> = payloads
                            .iter()
                            .map(|&p| {
                                tag += 1;
                                (p, tag)
                            })
                            .collect();
                        let expect = frames.iter().filter(|&&(p, t)| naive.enqueue(q, p, t)).count();
                        prop_assert_eq!(fast.enqueue_all(q, frames), expect);
                    }
                    Op::Dequeue(k) => {
                        for _ in 0..k {
                            prop_assert_eq!(fast.dequeue(), naive.dequeue());
                        }
                    }
                }
                prop_assert_eq!(fast.len(), naive.len());
                for q in 0..queues {
                    prop_assert_eq!(fast.queue_depth(q), naive.depth(q), "queue {}", q);
                    prop_assert_eq!(fast.doorbell(q), !naive.queues[q].is_empty(), "queue {}", q);
                }
            }
            while let Some(frame) = naive.dequeue() {
                prop_assert_eq!(fast.dequeue(), Some(frame));
            }
            prop_assert_eq!(fast.dequeue(), None);
            prop_assert!(fast.is_empty());
        }
    }

    #[test]
    fn single_queue_is_fifo() {
        let mut a: TxArbiter<u32> = TxArbiter::new(1, 1 << 20);
        for i in 0..5 {
            assert!(a.enqueue(0, 100, i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| a.dequeue()).map(|(_, t)| t).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn round_robin_interleaves_queues() {
        let mut a: TxArbiter<(usize, u32)> = TxArbiter::new(3, 1 << 20);
        for q in 0..3 {
            for i in 0..3 {
                assert!(a.enqueue(q, 100, (q, i)));
            }
        }
        let order: Vec<(usize, u32)> = std::iter::from_fn(|| a.dequeue()).map(|(_, t)| t).collect();
        // Frame-by-frame interleaving across queues.
        assert_eq!(
            order,
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (0, 2),
                (1, 2),
                (2, 2)
            ]
        );
    }

    #[test]
    fn enqueue_all_matches_per_frame_enqueue() {
        let mut batch: TxArbiter<u32> = TxArbiter::new(2, 450);
        let mut serial: TxArbiter<u32> = TxArbiter::new(2, 450);
        // Five 100-byte frames against a 450-byte limit: the last is
        // rejected in both modes, accepted frames keep FIFO order.
        let frames: Vec<(u32, u32)> = (0..5).map(|i| (100, i)).collect();
        let accepted = batch.enqueue_all(0, frames.iter().copied());
        let mut expect = 0;
        for &(p, t) in &frames {
            if serial.enqueue(0, p, t) {
                expect += 1;
            }
        }
        assert_eq!(accepted, expect);
        assert_eq!(accepted, 4);
        assert_eq!(batch.len(), serial.len());
        assert_eq!(batch.queue_depth(0), serial.queue_depth(0));
        loop {
            let (a, b) = (batch.dequeue(), serial.dequeue());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn byte_limit_rejects() {
        let mut a: TxArbiter<u8> = TxArbiter::new(1, 250);
        assert!(a.enqueue(0, 100, 0));
        assert!(a.enqueue(0, 100, 1));
        assert!(!a.enqueue(0, 100, 2), "251..300 bytes over limit");
        a.dequeue();
        assert!(a.enqueue(0, 100, 2), "room after dequeue");
    }

    #[test]
    fn skips_empty_queues() {
        let mut a: TxArbiter<u8> = TxArbiter::new(4, 1 << 20);
        a.enqueue(2, 10, 42);
        assert_eq!(a.dequeue().map(|(_, t)| t), Some(42));
        assert!(a.dequeue().is_none());
        assert!(a.is_empty());
    }

    #[test]
    fn depth_tracking() {
        let mut a: TxArbiter<u8> = TxArbiter::new(2, 1 << 20);
        a.enqueue(0, 100, 0);
        a.enqueue(0, 200, 1);
        assert_eq!(a.queue_depth(0), 300);
        assert_eq!(a.queue_depth(1), 0);
        a.dequeue();
        assert_eq!(a.queue_depth(0), 200);
    }
}
