//! A fixed reference loop timed around every pass, so host times can
//! be scaled to a nominal machine speed.
//!
//! The shared host this benchmark runs on changes speed by tens of percent
//! over seconds to minutes, on every CPU at once. The reference is a small
//! discrete-event loop (a binary-heap event queue whose handlers update
//! random slots of a 1 MiB state array) with constant inputs: it is the
//! benchmark's own code, so no change to the simulator moves it, while it
//! slows down with the host much as the simulator's event loop does.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Reference time, in seconds, that defines the nominal host speed: a
/// pass whose reference took this long is reported unscaled.
pub const NOMINAL_S: f64 = 0.005;

/// Events the reference loop handles per measurement.
const EVENTS: usize = 60_000;
/// Events pending in the reference queue at all times.
const PENDING: u32 = 2048;
/// State words (1 MiB).
const STATE_WORDS: usize = 1 << 17;

thread_local! {
    static STATE: RefCell<Vec<u64>> = RefCell::new(vec![1; STATE_WORDS]);
}

/// Time one pass of the reference loop, in seconds.
pub fn time() -> f64 {
    STATE.with(|state| {
        let mut state = state.borrow_mut();
        // Same inputs every pass: the handlers branch on the state.
        state.fill(1);
        let t = Instant::now();
        let mut queue: BinaryHeap<Reverse<(u64, u32)>> =
            BinaryHeap::with_capacity(PENDING as usize);
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        for id in 0..PENDING {
            h = mix(h ^ id as u64);
            queue.push(Reverse((h % 10_000, id)));
        }
        let mask = STATE_WORDS - 1;
        for _ in 0..EVENTS {
            let Reverse((now, id)) = queue.pop().expect("the queue never drains");
            h = mix(h ^ now.wrapping_add(id as u64));
            let (a, b) = (h as usize & mask, (h >> 20) as usize & mask);
            state[a] = state[a].wrapping_add(state[b] ^ now);
            let delay = if state[a] & 3 == 0 {
                1 + h % 500
            } else {
                1 + h % 20_000
            };
            queue.push(Reverse((now + delay, id)));
        }
        black_box(&*state);
        t.elapsed().as_secs_f64()
    })
}

fn mix(mut h: u64) -> u64 {
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}
