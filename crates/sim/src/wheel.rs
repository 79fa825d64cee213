//! Hierarchical timer wheel — the storage engine behind [`crate::EventQueue`].
//!
//! A binary heap pays an O(log n) sift on every push and pop; at
//! million-flow scale those sifts dominate the engine's cycle budget the
//! same way per-skb bookkeeping dominates the kernel's. The wheel replaces
//! them with O(1) bucket links and amortized-O(1) pops, in the style of
//! Varghese & Lauck's hierarchical timing wheels (SOSP '87):
//!
//! * **Slab** — every pending event lives in exactly one slab node, at the
//!   slot index its [`crate::event::EventToken`] carries. Nodes never
//!   move: buckets, the front and the spill refer to them by slot index,
//!   so a cascade relinks a node instead of copying it, and
//!   `remove` (cancellation) unlinks it in O(1). No dead entry is ever
//!   stored, so the live count *is* the stored count. Vacant slots form a
//!   LIFO free list threaded through `next`.
//! * **Front** — the slots of the one level-0 bucket being drained, each
//!   with its `(time, seq)` key copied alongside, sorted descending so the
//!   head pops off the back. The front is refilled only when a pop (or
//!   peek) finds it empty, so it holds one bucket's entries plus the
//!   pushes that land below its limit, never a run of later buckets.
//! * **Four wheel levels** of 256 buckets each; a bucket is an intrusive
//!   doubly linked list of slots. Level 0 buckets are 8 ns wide
//!   (`time >> 3`), and each higher level is 256× coarser (`time >> 11`,
//!   `time >> 19`, `time >> 27`), giving windows of ~2.05 µs, ~524 µs,
//!   ~134 ms and ~34.4 s ahead of the consumed edge. A per-level 256-bit
//!   occupancy bitmap finds the next non-empty bucket in a handful of word
//!   scans.
//! * **Spill** — entries beyond the level-3 window (≳34 s ahead) sit on one
//!   unsorted list and migrate into the wheels once the consumed edge draws
//!   near enough. Such far timers are vanishingly rare in a seconds-scale
//!   simulation, so walking the list on migration stays cheap.
//!
//! # Cursors and the placement rule
//!
//! `cur[l]` is the *absolute* index of the next unconsumed bucket at level
//! `l` (not masked). An entry at time `t` goes to the front if
//! `t < front_limit` (`front_limit = cur[0] << SHIFT0`), else to the
//! smallest level `l` with `(t >> shift(l)) < cur[l] + 256`, else to the
//! spill. Because the windows are anchored at the consumed edge rather than
//! at `now`, the rule is collision-proof: an entry can never land in a
//! bucket that has already been consumed or cascaded (see the invariants
//! below).
//!
//! # Refill and cascade
//!
//! When a pop finds the front empty, `refill` performs refill steps. Each
//! step compares the earliest non-empty level-0 bucket `a0` against the
//! *boundaries* of the earliest non-empty coarser buckets (`b_l << 8l`, in
//! level-0 bucket units). The coarsest level whose boundary is ≤ `a0` and ≤
//! every finer boundary cascades first — its slots relink into lower
//! levels — so nothing at a lower level is consumed while a coarser bucket
//! still covers the same span. Only then does bucket `a0` become the front,
//! sorted, advancing `cur[0]` (and hence `front_limit`) past it. Sorting is
//! what restores FIFO order between same-time entries that reached the
//! bucket by different routes (one cascaded, one pushed directly).
//!
//! # Invariants
//!
//! 1. Every entry outside the front has `time >= front_limit`, hence
//!    `time >> SHIFT0 >= cur[0]`; every entry in the front has
//!    `time < front_limit`.
//! 2. `cur[l+1] <= (cur[l] >> 8) + 1` for every adjacent level pair: an
//!    entry that misses a level's window always fits the next one.
//! 3. The front is sorted descending by `(time, seq)`. With invariant 1,
//!    its last element is the earliest pending entry.
//! 4. A level's occupancy bit is set iff its bucket list is non-empty, and
//!    every node's `loc` names the container whose list (or front) holds it.

use crate::time::SimTime;

/// Buckets per wheel level.
pub(crate) const SLOTS: usize = 256;
/// log2 of a level-0 bucket width in nanoseconds (8 ns). Kept small so a
/// level-0 bucket holds few entries even under dense event storms: the
/// front sort is the wheel's only comparison cost, and small buckets keep
/// it in the sorter's cheap insertion-sort regime.
pub(crate) const SHIFT0: u32 = 3;
/// Bits added per level (each level is 256× coarser).
const LEVEL_BITS: u32 = 8;
/// Number of wheel levels before the spill list takes over.
pub(crate) const LEVELS: usize = 4;

/// Null slot link.
const NIL: u32 = u32::MAX;
/// `Node::loc` of a vacant slot (on the free list).
const VACANT: u16 = u16::MAX;
/// `Node::loc` of an entry in the front.
const FRONT: u16 = u16::MAX - 1;
/// `Node::loc` of an entry on the spill list.
const SPILL: u16 = u16::MAX - 2;

#[inline]
fn level_shift(level: usize) -> u32 {
    SHIFT0 + LEVEL_BITS * level as u32
}

/// One slab slot: a pending event with its links, or a vacant slot on the
/// free list (`loc == VACANT`, `event == None`).
struct Node<E> {
    /// Fire time in nanoseconds.
    time: u64,
    /// FIFO tie-break among same-time entries.
    seq: u64,
    /// Bumped whenever the slot's event fires or is cancelled, so a token
    /// stamped with an older generation is dead.
    generation: u64,
    /// Next slot in this node's bucket or spill list (or the free list).
    next: u32,
    /// Previous slot in this node's bucket or spill list; `NIL` at the
    /// list head.
    prev: u32,
    /// `level * SLOTS + bucket`, or `FRONT`, `SPILL` or `VACANT`.
    loc: u16,
    event: Option<E>,
}

/// One wheel level: 256 bucket list heads, a 256-bit occupancy bitmap,
/// and the absolute index of the next unconsumed bucket.
struct Level {
    heads: [u32; SLOTS],
    occupied: [u64; 4],
    cur: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            heads: [NIL; SLOTS],
            occupied: [0; 4],
            cur: 0,
        }
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Absolute index of the earliest non-empty bucket, or `None` if the
    /// level is empty. All occupied buckets lie in `[cur, cur + 256)`, so
    /// the circular distance from `cur`'s slot to a set bit *is* the
    /// absolute distance from `cur`.
    fn next_occupied(&self) -> Option<u64> {
        let start = (self.cur as usize) & (SLOTS - 1);
        let (sw, sb) = (start / 64, start % 64);
        let w = self.occupied[sw] & (!0u64 << sb);
        if w != 0 {
            let idx = sw * 64 + w.trailing_zeros() as usize;
            return Some(self.cur + (idx - start) as u64);
        }
        for k in 1..=4usize {
            let wi = (sw + k) % 4;
            let mut w = self.occupied[wi];
            if k == 4 {
                // Wrapped back to the start word: only bits before `sb`.
                w &= (1u64 << sb) - 1;
            }
            if w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                let off = (idx + SLOTS - start) % SLOTS;
                return Some(self.cur + off as u64);
            }
        }
        None
    }
}

/// A front entry: a slot with its `(time, seq)` key copied alongside, so
/// sorting, ranked inserts and pops never chase a slab index.
#[derive(Clone, Copy)]
struct FrontEntry {
    time: u64,
    seq: u64,
    slot: u32,
}

impl FrontEntry {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// Push `slot` at the head of the intrusive list rooted at `head`.
#[inline]
fn link<E>(slab: &mut [Node<E>], head: &mut u32, slot: u32, loc: u16) {
    let old = *head;
    let n = &mut slab[slot as usize];
    n.prev = NIL;
    n.next = old;
    n.loc = loc;
    if old != NIL {
        slab[old as usize].prev = slot;
    }
    *head = slot;
}

/// Hierarchical timer wheel over a slab of events, popping in
/// `(time, seq)` order.
pub(crate) struct TimerWheel<E> {
    slab: Vec<Node<E>>,
    /// Head of the vacant-slot free list (LIFO).
    free: u32,
    /// Pending entries (front + levels + spill).
    live: usize,
    /// Slots of the level-0 bucket being drained, plus pushes that landed
    /// below `front_limit`, sorted descending by `(time, seq)`.
    front: Vec<FrontEntry>,
    levels: [Level; LEVELS],
    /// Head of the spill list.
    spill: u32,
    /// Lower bound (ns) on the spill's earliest entry; exact right after a
    /// migration walk. Cancellation may leave it stale-low, which only
    /// costs an early walk.
    spill_min: u64,
    /// Conservative lower bound (in level-0 bucket units) on the earliest
    /// occupied coarse-level bucket boundary. While the next level-0
    /// bucket sits below it, no cascade can be due, so refill skips the
    /// coarse bitmap scans entirely — the common case when events cluster
    /// near `now`. Pushes lower it; cascades zero it to force a rescan.
    coarse_min: u64,
}

impl<E> TimerWheel<E> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: NIL,
            live: 0,
            front: Vec::new(),
            levels: std::array::from_fn(|_| Level::new()),
            spill: NIL,
            spill_min: u64::MAX,
            coarse_min: u64::MAX,
        }
    }

    /// Pending entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Everything below this time lives in the front.
    #[inline]
    fn front_limit(&self) -> u64 {
        self.levels[0].cur << SHIFT0
    }

    /// Store `event` at `time` with tie-break `seq`, returning its slot and
    /// the generation stamped on it.
    pub(crate) fn insert(&mut self, time: SimTime, seq: u64, event: E) -> (u32, u64) {
        let slot = if self.free != NIL {
            let s = self.free;
            let n = &mut self.slab[s as usize];
            self.free = n.next;
            n.time = time.as_nanos();
            n.seq = seq;
            n.event = Some(event);
            s
        } else {
            self.slab.push(Node {
                time: time.as_nanos(),
                seq,
                generation: 0,
                next: NIL,
                prev: NIL,
                loc: VACANT,
                event: Some(event),
            });
            (self.slab.len() - 1) as u32
        };
        self.live += 1;
        self.place(slot);
        (slot, self.slab[slot as usize].generation)
    }

    /// Unlink and drop the entry in `slot` if it still carries
    /// `generation`. Returns false for a vacant slot, a stale generation or
    /// an out-of-range slot.
    pub(crate) fn remove(&mut self, slot: u32, generation: u64) -> bool {
        match self.slab.get(slot as usize) {
            Some(n) if n.generation == generation && n.loc != VACANT => {}
            _ => return false,
        }
        self.unlink(slot);
        self.release(slot);
        true
    }

    /// Remove and return the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.refill() {
            return None;
        }
        let head = self.front.pop().expect("refilled front");
        let event = self.slab[head.slot as usize]
            .event
            .take()
            .expect("pending slot holds an event");
        self.release(head.slot);
        Some((SimTime::from_nanos(head.time), event))
    }

    /// Time of the earliest entry, refilling the front if needed.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if !self.refill() {
            return None;
        }
        let head = self.front.last().expect("refilled front");
        Some(SimTime::from_nanos(head.time))
    }

    /// Pin a slot's generation stamp (test support).
    pub(crate) fn force_generation(&mut self, slot: u32, generation: u64) {
        self.slab[slot as usize].generation = generation;
    }

    /// Count the entries reachable by walking the front, every bucket list
    /// and the spill. Equals [`Self::len`] unless a list is corrupt.
    pub(crate) fn reachable(&self) -> usize {
        let walk = |mut s: u32| {
            let mut n = 0;
            while s != NIL {
                n += 1;
                s = self.slab[s as usize].next;
            }
            n
        };
        let buckets: usize = self
            .levels
            .iter()
            .flat_map(|level| level.heads.iter())
            .map(|&head| walk(head))
            .sum();
        self.front.len() + buckets + walk(self.spill)
    }

    /// Vacate `slot`: bump its generation and push it on the free list.
    #[inline]
    fn release(&mut self, slot: u32) {
        let n = &mut self.slab[slot as usize];
        n.generation = n.generation.wrapping_add(1);
        n.loc = VACANT;
        n.event = None;
        n.next = self.free;
        self.free = slot;
        self.live -= 1;
    }

    /// Link `slot` into the container its time belongs to, per the
    /// placement rule.
    fn place(&mut self, slot: u32) {
        let t = self.slab[slot as usize].time;
        if t < self.front_limit() {
            self.front_insert(slot);
            return;
        }
        for l in 0..LEVELS {
            let abs = t >> level_shift(l);
            let level = &mut self.levels[l];
            if abs < level.cur + SLOTS as u64 {
                debug_assert!(abs >= level.cur, "entry behind consumed edge");
                let idx = (abs as usize) & (SLOTS - 1);
                link(
                    &mut self.slab,
                    &mut level.heads[idx],
                    slot,
                    (l * SLOTS + idx) as u16,
                );
                level.mark(idx);
                if l > 0 {
                    let boundary = abs << (LEVEL_BITS * l as u32);
                    self.coarse_min = self.coarse_min.min(boundary);
                }
                return;
            }
        }
        self.spill_min = if self.spill == NIL {
            t
        } else {
            self.spill_min.min(t)
        };
        link(&mut self.slab, &mut self.spill, slot, SPILL);
    }

    /// Insert `slot` into the descending front at its `(time, seq)` rank.
    fn front_insert(&mut self, slot: u32) {
        let n = &mut self.slab[slot as usize];
        n.loc = FRONT;
        let e = FrontEntry {
            time: n.time,
            seq: n.seq,
            slot,
        };
        let pos = self.front.partition_point(|x| x.key() > e.key());
        self.front.insert(pos, e);
    }

    /// Detach `slot` from whichever container holds it.
    fn unlink(&mut self, slot: u32) {
        let n = &self.slab[slot as usize];
        let (prev, next, loc) = (n.prev, n.next, n.loc);
        if loc == FRONT {
            let key = (n.time, n.seq);
            let pos = self.front.partition_point(|x| x.key() > key);
            debug_assert_eq!(self.front[pos].slot, slot);
            self.front.remove(pos);
            return;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        }
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if loc == SPILL {
            self.spill = next;
        } else {
            let (l, idx) = (loc as usize / SLOTS, loc as usize % SLOTS);
            self.levels[l].heads[idx] = next;
            if next == NIL {
                self.levels[l].clear(idx);
            }
        }
    }

    /// Make the front hold the earliest entry. Returns false when the
    /// wheel is empty. Amortized O(1) per stored entry: each entry cascades
    /// at most `LEVELS - 1` times and is sorted into the front once.
    #[inline]
    fn refill(&mut self) -> bool {
        while self.front.is_empty() {
            if self.live == 0 || !self.refill_once() {
                return false;
            }
        }
        true
    }

    /// Keep the coarser cursors abreast of the consumed edge so the
    /// placement windows track it. Called whenever `cur[0]` advances: no
    /// entry below `front_limit` is stored outside the front, so no
    /// occupied coarse bucket can be skipped by this advance.
    fn sync_cursors(&mut self) {
        // Each coarse cursor advances from `cur[0]` directly (not from the
        // next-finer cursor, which may sit one bucket *past* its own
        // boundary and would over-advance the coarser level).
        let c0 = self.levels[0].cur;
        for (l, level) in self.levels.iter_mut().enumerate().skip(1) {
            let target = c0 >> (LEVEL_BITS * l as u32);
            if level.cur < target {
                level.cur = target;
            }
        }
    }

    /// One unit of refill work: migrate eligible spill entries, cascade the
    /// coarser level whose boundary is due, consume the next level-0
    /// bucket, or re-anchor onto the spill. Returns false when nothing
    /// remains outside the front.
    fn refill_once(&mut self) -> bool {
        self.migrate_spill();
        let a0 = self.levels[0].next_occupied();
        // Fast path: the next level-0 bucket lies strictly before every
        // occupied coarse boundary, so no cascade can be due.
        if let Some(a0v) = a0 {
            if a0v < self.coarse_min {
                self.consume_l0(a0v);
                return true;
            }
        }
        // Ties go to the coarser level: its entries may belong in the very
        // bucket (or finer bucket) about to be processed. Scanning finer to
        // coarser with `<=` leaves the coarsest tied level selected.
        let mut best = None;
        let mut best_boundary = a0.unwrap_or(u64::MAX);
        let mut min_boundary = u64::MAX;
        for l in 1..LEVELS {
            if let Some(b) = self.levels[l].next_occupied() {
                let boundary = b << (LEVEL_BITS * l as u32);
                min_boundary = min_boundary.min(boundary);
                if boundary <= best_boundary {
                    best = Some((l, b));
                    best_boundary = boundary;
                }
            }
        }
        if let Some((l, b)) = best {
            self.cascade(l, b);
            // Coarse occupancy changed; force a rescan next refill.
            self.coarse_min = 0;
            true
        } else if let Some(a0) = a0 {
            // The scan just proved every coarse boundary is beyond `a0`.
            self.coarse_min = min_boundary;
            self.consume_l0(a0);
            true
        } else if self.spill != NIL {
            self.reanchor_to_spill();
            self.coarse_min = 0;
            true
        } else {
            false
        }
    }

    /// Detach bucket `idx` of level `l`, returning its list head.
    #[inline]
    fn take_bucket(&mut self, l: usize, idx: usize) -> u32 {
        let level = &mut self.levels[l];
        level.clear(idx);
        std::mem::replace(&mut level.heads[idx], NIL)
    }

    /// Relink bucket `b` of level `l` into finer levels. The caller
    /// guarantees no finer-level bucket before `b`'s boundary is occupied,
    /// so advancing the finer cursor to the boundary skips only empties.
    fn cascade(&mut self, l: usize, b: u64) {
        let boundary = b << LEVEL_BITS;
        if self.levels[l - 1].cur < boundary {
            self.levels[l - 1].cur = boundary;
        }
        if l - 1 == 0 {
            self.sync_cursors();
        }
        let mut s = self.take_bucket(l, (b as usize) & (SLOTS - 1));
        self.levels[l].cur = b + 1;
        while s != NIL {
            let next = self.slab[s as usize].next;
            self.place(s);
            s = next;
        }
    }

    /// Make level-0 bucket `a0` the front, sorted, advancing the consumed
    /// edge past it. The front is empty on entry.
    fn consume_l0(&mut self, a0: u64) {
        debug_assert!(self.front.is_empty());
        let mut s = self.take_bucket(0, (a0 as usize) & (SLOTS - 1));
        self.levels[0].cur = a0 + 1;
        self.sync_cursors();
        while s != NIL {
            let n = &mut self.slab[s as usize];
            n.loc = FRONT;
            self.front.push(FrontEntry {
                time: n.time,
                seq: n.seq,
                slot: s,
            });
            s = n.next;
        }
        // Lists link at the head, so direct pushes arrive newest first: a
        // bucket filled in FIFO order is already descending.
        if self.front.len() > 1 {
            self.front
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        }
    }

    /// Relink spill entries whose top-level bucket has come within the
    /// window, recomputing the exact minimum of those that stay.
    fn migrate_spill(&mut self) {
        if self.spill == NIL {
            return;
        }
        let top = LEVELS - 1;
        let horizon = self.levels[top].cur + SLOTS as u64;
        if self.spill_min >> level_shift(top) >= horizon {
            return;
        }
        let mut min = u64::MAX;
        let mut s = self.spill;
        while s != NIL {
            let n = &self.slab[s as usize];
            let (next, t) = (n.next, n.time);
            if t >> level_shift(top) < horizon {
                self.unlink(s);
                self.place(s);
            } else {
                min = min.min(t);
            }
            s = next;
        }
        self.spill_min = min;
    }

    /// Everything but the spill is empty and the spill is still beyond the
    /// level-3 window: jump the consumed edge to the spill minimum so
    /// migration can proceed. Safe because there is nothing to skip.
    fn reanchor_to_spill(&mut self) {
        let anchor = self.spill_min >> SHIFT0;
        if self.levels[0].cur < anchor {
            self.levels[0].cur = anchor;
        }
        self.sync_cursors();
        self.migrate_spill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(w: &mut TimerWheel<u64>, t: u64, seq: u64) -> (u32, u64) {
        w.insert(SimTime::from_nanos(t), seq, seq)
    }

    /// Drain the wheel fully, returning (time, seq) pairs in pop order
    /// (each test stores its seq as the payload).
    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop())
            .map(|(t, seq)| (t.as_nanos(), seq))
            .collect()
    }

    #[test]
    fn pops_sorted_across_levels_and_spill() {
        let mut w = TimerWheel::new();
        // One entry per region: front-of-L0, deep L0, L1, L2, L3, spill.
        let times = [
            5u64,
            2_000,             // L0 window (2.05us)
            500_000,           // L1 window (524us)
            100_000_000,       // L2 window (134ms)
            20_000_000_000,    // L3 window (34.4s)
            2_000_000_000_000, // spill (2000s)
        ];
        for (i, &t) in times.iter().rev().enumerate() {
            push(&mut w, t, i as u64);
        }
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(t, _)| t).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn same_time_pops_in_seq_order_regardless_of_insert_order() {
        let mut w = TimerWheel::new();
        let t = 777u64;
        // Insert with shuffled seqs; pop order must be by seq.
        for &s in &[4u64, 1, 3, 0, 2] {
            push(&mut w, t, s);
        }
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, s)| s).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interleaved_push_pop_is_totally_ordered() {
        // Mixed near/far pushes interleaved with pops; the output stream
        // must be non-decreasing in (time, seq) whenever the pushes never
        // go behind the last popped time.
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut last = (0u64, 0u64);
        let mut pending = 0usize;
        for round in 0..2_000u64 {
            let base = last.0;
            for _ in 0..(next() % 4) {
                let spread = match next() % 10 {
                    0 => 100_000_000_000, // spill-bound (≳34s)
                    1 => 3_000_000_000,   // L3
                    2 => 10_000_000,      // L2
                    3..=5 => 200_000,     // L1
                    _ => 400,             // L0
                };
                push(&mut w, base + next() % spread, seq);
                seq += 1;
                pending += 1;
            }
            if round % 3 != 0 {
                if let Some((t, s)) = w.pop() {
                    let k = (t.as_nanos(), s);
                    assert!(k >= last, "order violated: {k:?} after {last:?}");
                    last = k;
                    pending -= 1;
                }
            }
        }
        let rest = drain(&mut w);
        assert_eq!(rest.len(), pending);
        for k in rest {
            assert!(k >= last);
            last = k;
        }
    }

    #[test]
    fn same_time_pushes_around_a_drained_front_stay_fifo() {
        let mut w = TimerWheel::new();
        push(&mut w, 100, 0);
        push(&mut w, 300, 1);
        for s in 2..5 {
            push(&mut w, 200, s);
        }
        assert_eq!(w.pop().map(|(_, s)| s), Some(0));
        // A run landing before the next bucket after the consumed edge
        // moved, then a same-instant run behind it.
        for s in 5..7 {
            push(&mut w, 210, s);
        }
        push(&mut w, 200, 7);
        assert_eq!(
            drain(&mut w),
            vec![
                (200, 2),
                (200, 3),
                (200, 4),
                (200, 7),
                (210, 5),
                (210, 6),
                (300, 1)
            ]
        );
    }

    #[test]
    fn far_future_singleton_reanchors_without_scanning() {
        let mut w = TimerWheel::new();
        push(&mut w, 10, 0);
        assert_eq!(w.pop().map(|(t, _)| t.as_nanos()), Some(10));
        // An hour ahead: lands in spill, then the empty wheel re-anchors.
        let hour = 3_600_000_000_000u64;
        push(&mut w, hour, 1);
        assert_eq!(w.peek_time().map(|t| t.as_nanos()), Some(hour));
        // A nearer entry scheduled after the re-anchor still pops first if
        // it precedes the spill entry.
        push(&mut w, hour - 32, 2);
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, s)| s).collect();
        assert_eq!(got, vec![2, 1]);
    }

    #[test]
    fn spill_migrates_as_the_edge_approaches() {
        let mut w = TimerWheel::new();
        let far = 100_000_000_000u64; // 100s: beyond the initial L3 window
        push(&mut w, far, 0);
        assert_ne!(w.spill, NIL);
        // A steady stream of near events drags the consumed edge forward;
        // the spill entry must fire at exactly its time, in order.
        let mut seq = 1u64;
        let mut t = 0u64;
        let mut popped = Vec::new();
        while t < far + 1_000 {
            t += 100_000_000; // 100ms steps
            push(&mut w, t, seq);
            seq += 1;
            popped.push(w.pop().unwrap().0.as_nanos());
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        assert!(popped.contains(&far), "spill entry never fired");
        assert_eq!(w.spill, NIL);
    }

    #[test]
    fn len_tracks_every_region() {
        let mut w = TimerWheel::new();
        assert_eq!(w.len(), 0);
        push(&mut w, 50, 0); // L0
        push(&mut w, 400_000, 1); // L1
        push(&mut w, 100_000_000, 2); // L2
        push(&mut w, 9_000_000_000, 3); // L3
        push(&mut w, 100_000_000_000, 4); // spill
        assert_eq!(w.len(), 5);
        assert_eq!(w.reachable(), 5);
        w.pop();
        assert_eq!(w.len(), 4);
        assert_eq!(w.reachable(), 4);
        assert_eq!(drain(&mut w).len(), 4);
        assert_eq!(w.len(), 0);
        assert_eq!(w.reachable(), 0);
    }

    #[test]
    fn cancel_from_every_region_unlinks() {
        let mut w = TimerWheel::new();
        // Advance the edge so the front is in play: a pop at t=1000 leaves
        // its bucket's later entry (t=1003) in the front.
        push(&mut w, 1_000, 0);
        let front = push(&mut w, 1_003, 1);
        assert_eq!(w.pop().map(|(t, _)| t.as_nanos()), Some(1_000));
        assert_eq!(w.slab[front.0 as usize].loc, FRONT);
        push(&mut w, 1_004, 2); // survives, in the front
        push(&mut w, 150_000_000_000, 3); // survives, at the spill tail
        let tokens = [
            front,
            push(&mut w, 1_500, 4),           // L0
            push(&mut w, 400_000, 5),         // L1
            push(&mut w, 100_000_000, 6),     // L2
            push(&mut w, 9_000_000_000, 7),   // L3
            push(&mut w, 100_000_000_000, 8), // spill, mid-list
            push(&mut w, 200_000_000_000, 9), // spill, list head
        ];
        let locs: Vec<u16> = tokens
            .iter()
            .map(|&(s, _)| w.slab[s as usize].loc)
            .collect();
        assert_eq!(locs[0], FRONT);
        for (l, &loc) in locs[1..5].iter().enumerate() {
            assert_eq!(loc as usize / SLOTS, l, "entry {l} not at level {l}");
        }
        assert_eq!(&locs[5..], &[SPILL, SPILL]);
        for &(slot, generation) in &tokens {
            assert!(w.remove(slot, generation));
            assert!(!w.remove(slot, generation), "double remove");
            assert_eq!(w.reachable(), w.len());
        }
        assert_eq!(w.len(), 2);
        // No bucket is left marked occupied by a removed entry.
        for level in &w.levels {
            for (idx, &head) in level.heads.iter().enumerate() {
                let bit = level.occupied[idx / 64] >> (idx % 64) & 1 == 1;
                assert_eq!(bit, head != NIL);
            }
        }
        assert_eq!(drain(&mut w), vec![(1_004, 2), (150_000_000_000, 3)]);
    }

    #[test]
    fn cascaded_entry_keeps_fifo_against_a_direct_level0_push() {
        let mut w = TimerWheel::new();
        // t lies beyond the level-0 window at first push (cur[0] = 0, so
        // the window ends at 2048 ns): the entry lands in level 1.
        let t = 3_000u64;
        let early = push(&mut w, t, 0);
        assert_eq!(w.slab[early.0 as usize].loc as usize / SLOTS, 1);
        // Walk the edge forward until t is inside the level-0 window but
        // its level-1 bucket has not cascaded yet.
        push(&mut w, 1_500, 1);
        assert_eq!(w.pop().map(|(_, s)| s), Some(1));
        let late = push(&mut w, t, 2);
        assert_eq!(w.slab[late.0 as usize].loc as usize / SLOTS, 0);
        assert_eq!(w.slab[early.0 as usize].loc as usize / SLOTS, 1);
        // The cascade appends the earlier entry behind the later one in the
        // level-0 bucket; the front sort restores FIFO.
        assert_eq!(drain(&mut w), vec![(t, 0), (t, 2)]);
    }

    #[test]
    fn rearmed_timers_keep_the_slab_at_the_live_count() {
        // RTO-style re-arming: 64 live timers, each cancelled and
        // rescheduled 1 ms out while a tick event drags `now` forward 1 µs
        // per step. None ever fires; cancelled entries must not pile up.
        const TIMERS: usize = 64;
        const MS: u64 = 1_000_000;
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut timers: Vec<(u32, u64)> = (0..TIMERS)
            .map(|_| {
                seq += 1;
                w.insert(SimTime::from_nanos(MS), seq, u64::MAX)
            })
            .collect();
        let mut peak = w.len();
        for step in 0..200_000usize {
            seq += 1;
            w.insert(SimTime::from_nanos(now + 1_000), seq, step as u64);
            peak = peak.max(w.len());
            let (t, ev) = w.pop().expect("tick pending");
            assert_eq!(ev, step as u64, "a timer fired");
            now = t.as_nanos();
            let k = step % TIMERS;
            assert!(w.remove(timers[k].0, timers[k].1));
            seq += 1;
            timers[k] = w.insert(SimTime::from_nanos(now + MS), seq, u64::MAX);
        }
        assert_eq!(w.len(), TIMERS);
        assert_eq!(w.reachable(), TIMERS);
        assert!(
            w.slab.capacity() <= 2 * peak + 8,
            "slab capacity {} for a peak of {peak} live entries",
            w.slab.capacity()
        );
    }
}
