//! Differential property tests: the timer-wheel [`EventQueue`] against the
//! reference binary-heap [`HeapEventQueue`].
//!
//! Both queues consume identical operation streams — interleaved
//! schedules (near, mid-wheel, far-spill horizons), bulk `schedule_all`
//! runs, cancellations of pending *and already-fired* tokens, and pops —
//! and every observable (`pop` results, `len`, `popped`, `peek_time`,
//! `now`) is asserted equal after every single operation. Dedicated
//! cancel ops aim at the two containers a random pick rarely hits: the
//! wheel's front (the earliest pending event, right after a peek) and its
//! spill (the latest pending event). Another property pins slot
//! generations near `u64::MAX` so wrap-around reuse is covered, not just
//! reachable.

use hns_sim::event::EventToken;
use hns_sim::{EventQueue, HeapEventQueue, SimTime};
use proptest::prelude::*;

/// Decoded operation stream: `(kind, a, b)` triples.
type Ops = Vec<(u64, u64, u64)>;

fn ops_strategy(len: usize) -> impl Strategy<Value = Ops> {
    proptest::collection::vec((0u64..12, any::<u64>(), any::<u64>()), 1..len)
}

/// A pending event scheduled with a token on both queues.
#[derive(Clone, Copy)]
struct Pending {
    id: u64,
    at: SimTime,
    tw: EventToken,
    th: EventToken,
}

/// Delay horizon by profile: exercises the front, every wheel level, and
/// the spill list.
fn horizon(profile: u64) -> u64 {
    match profile % 7 {
        0 => 60,              // same / adjacent level-0 bucket
        1 => 1_500,           // level 0 window (2.05us)
        2 => 300_000,         // level 1 window (524us)
        3 => 100_000_000,     // level 2 window (134ms)
        4 => 10_000_000_000,  // level 3 window (34.4s)
        5 => 100_000_000_000, // spill (≳34s ahead)
        _ => 0,               // exactly now (same-tick)
    }
}

/// Cancel `p` on both queues and retire its tokens to `dead`.
fn cancel_both(
    p: Pending,
    w: &mut EventQueue<u64>,
    h: &mut HeapEventQueue<u64>,
    dead: &mut Vec<(EventToken, EventToken)>,
) {
    w.cancel(p.tw);
    h.cancel(p.th);
    dead.push((p.tw, p.th));
}

/// Apply one op to both queues, checking pop results match. Outstanding
/// tokened events are kept in `live`, fired/cancelled tokens in `dead`
/// so stale-token cancels (always no-ops) get exercised too.
fn apply(
    op: (u64, u64, u64),
    id: &mut u64,
    w: &mut EventQueue<u64>,
    h: &mut HeapEventQueue<u64>,
    live: &mut Vec<Pending>,
    dead: &mut Vec<(EventToken, EventToken)>,
) {
    let (kind, a, b) = op;
    match kind {
        // Schedule one event at a horizon chosen by `a`.
        0..=3 => {
            let at = SimTime::from_nanos(w.now().as_nanos() + b % (horizon(a) + 1));
            let tw = w.schedule(at, *id);
            let th = h.schedule(at, *id);
            live.push(Pending {
                id: *id,
                at,
                tw,
                th,
            });
            *id += 1;
        }
        // Bulk schedule_all on the wheel vs the reference semantics: one
        // schedule per event at the same instant (tokens not retained).
        4 => {
            let at = SimTime::from_nanos(w.now().as_nanos() + b % (horizon(a) + 1));
            let n = 1 + a % 5;
            w.schedule_all(at, *id..*id + n);
            for e in *id..*id + n {
                h.schedule(at, e);
            }
            *id += n;
        }
        // Cancel an outstanding event.
        5..=6 => {
            if !live.is_empty() {
                let k = (a as usize) % live.len();
                let p = live.swap_remove(k);
                cancel_both(p, w, h, dead);
            }
        }
        // Cancel a fired-or-cancelled token: must be a no-op on both.
        7 => {
            if !dead.is_empty() {
                let k = (a as usize) % dead.len();
                let (tw, th) = dead[k];
                w.cancel(tw);
                h.cancel(th);
            }
        }
        // Peek (refilling the wheel's front), then cancel the earliest
        // tokened event: it sits in the front.
        8 => {
            assert_eq!(w.peek_time(), h.peek_time(), "peek_time diverged");
            if let Some(k) = (0..live.len()).min_by_key(|&k| (live[k].at, live[k].id)) {
                let p = live.swap_remove(k);
                cancel_both(p, w, h, dead);
            }
        }
        // Cancel the latest tokened event: on the spill whenever one is.
        9 => {
            if let Some(k) = (0..live.len()).max_by_key(|&k| (live[k].at, live[k].id)) {
                let p = live.swap_remove(k);
                cancel_both(p, w, h, dead);
            }
        }
        // Pop.
        _ => {
            let (pw, ph) = (w.pop(), h.pop());
            assert_eq!(pw, ph, "pop diverged");
            if let Some((_, fired)) = pw {
                if let Some(k) = live.iter().position(|p| p.id == fired) {
                    let p = live.swap_remove(k);
                    dead.push((p.tw, p.th));
                }
            }
        }
    }
}

/// Compare every observable. `peek` is optional because a peek refills
/// the wheel's front: ops must also run against an unrefilled front.
fn assert_observables(w: &mut EventQueue<u64>, h: &HeapEventQueue<u64>, peek: bool) {
    assert_eq!(w.len(), h.len(), "len diverged");
    assert_eq!(w.is_empty(), h.is_empty());
    assert_eq!(w.popped(), h.popped(), "popped diverged");
    if peek {
        assert_eq!(w.peek_time(), h.peek_time(), "peek_time diverged");
    }
    assert_eq!(w.now(), h.now(), "now diverged");
    assert_eq!(w.reachable(), w.len(), "wheel links lost an entry");
    assert_eq!(
        w.scheduled(),
        w.popped() + w.cancelled() + w.len() as u64,
        "event-queue ledger"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings of schedule / schedule_all / cancel /
    /// cancel-after-fire / pop: every observable matches the heap oracle
    /// after every operation, and draining both yields identical streams.
    #[test]
    fn wheel_matches_heap_on_interleaved_ops(ops in ops_strategy(400)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut id = 0u64;
        let (mut live, mut dead) = (Vec::new(), Vec::new());
        for op in ops {
            apply(op, &mut id, &mut w, &mut h, &mut live, &mut dead);
            assert_observables(&mut w, &h, op.2 % 2 == 0);
        }
        loop {
            let (pw, ph) = (w.pop(), h.pop());
            prop_assert_eq!(pw, ph);
            assert_observables(&mut w, &h, true);
            if pw.is_none() {
                break;
            }
        }
        prop_assert_eq!(w.popped(), h.popped());
    }

    /// Same differential drive with slot generations pinned near
    /// `u64::MAX`, so fire/cancel bumps wrap and stale pre-wrap tokens
    /// must stay dead on both implementations.
    #[test]
    fn wheel_matches_heap_across_generation_wrap(ops in ops_strategy(200)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        // Materialize a few slots, then pin them just below the wrap on
        // both sides (slot assignment is deterministic and identical).
        let mut first = Vec::new();
        for i in 0..4u64 {
            let tw = w.schedule(SimTime::from_nanos(i + 1), i);
            let th = h.schedule(SimTime::from_nanos(i + 1), i);
            first.push((tw, th));
        }
        for (tw, th) in first {
            w.cancel(tw);
            h.cancel(th);
        }
        for slot in 0..4u32 {
            w.force_generation(slot, u64::MAX - 1);
            h.force_generation(slot, u64::MAX - 1);
        }
        let mut id = 10u64;
        let (mut live, mut dead) = (Vec::new(), Vec::new());
        for op in ops {
            apply(op, &mut id, &mut w, &mut h, &mut live, &mut dead);
            assert_observables(&mut w, &h, op.2 % 2 == 0);
        }
        loop {
            let (pw, ph) = (w.pop(), h.pop());
            prop_assert_eq!(pw, ph);
            if pw.is_none() {
                break;
            }
        }
        assert_observables(&mut w, &h, true);
    }
}
