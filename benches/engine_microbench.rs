//! Perf-trajectory harness for the simulation engine and sweep runner.
//!
//! A plain `main()` bench (`harness = false`) so it runs fully offline —
//! criterion lives on crates.io, which the build environment cannot
//! reach. Measures the quantities the hot-path work targets:
//!
//! * **event-queue ops/sec, wheel vs heap** — the same schedule/cancel/pop
//!   churn driven through the timer-wheel [`hns_sim::EventQueue`] and the
//!   reference [`hns_sim::HeapEventQueue`], so the wheel's speedup is
//!   measured on the workload shape every `BENCH_<n>.json` has recorded;
//! * **cancellation-heavy and far-future-spill churn** — adversarial
//!   queue workloads that force the wheel's cancel-unlink, cascade,
//!   spill-migration, and re-anchor paths (smoke mode runs them too, so CI
//!   covers those paths, not just the happy path);
//! * **timer re-arm** — ns per cancel-plus-reschedule of 64 live RTO-style
//!   timers re-armed 1 ms out while `now` advances 1 µs per step, and the
//!   loop's peak live bytes (reported, not gated): the pattern that buries
//!   cancelled entries in any queue that defers their removal;
//! * **Tx arbiter dequeue ns/op** — [`hns_nic::TxArbiter`] round-robin
//!   service over the default 24 per-core queues with 1 and with 8 of
//!   them holding frames (reported, not gated);
//! * **engine events/sec** — a full single-flow run, wall-clock divided
//!   into [`World::events_processed`];
//! * **allocs/skb and peak bytes/skb** — heap allocations and peak live
//!   bytes (above the pre-run baseline) per delivered skb during that
//!   run, counted by a wrapping global allocator, so neither allocation
//!   count nor resident footprint (e.g. the wheel's slab) can
//!   silently regress;
//! * **sweep wall-clock** — the fig. 3e 24-point grid at `--jobs 1`
//!   vs `--jobs 4` through the same `run_sweep_with` path the CLI uses.
//!
//! A full run writes its results as JSON to the path given by
//! `-- --out PATH` (by convention a new `BENCH_<n>.json` at the repo root,
//! so successive records sit side by side) and writes nothing without it,
//! so a rerun can never overwrite a committed record by accident.
//! `-- --test` runs a seconds-scale smoke version, asserts the wheel is at
//! least as fast as the heap, and writes nothing: CI uses it to keep the
//! bench compiling and every queue path exercised.
//! `-- --test --wheel-vs-heap` runs only the queue comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use hns_core::figures;
use hns_nic::TxArbiter;
use hns_sim::event::EventToken;
use hns_sim::{Duration, EventQueue, HeapEventQueue, SimTime};
use hns_stack::{SimConfig, World};
use hns_workload::Placement;

/// Counts every heap allocation (alloc + realloc) made by the process and
/// tracks live bytes so per-phase peak footprint can be measured.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated. Signed: frees of pre-main allocations may
/// transiently drive the counter below the snapshot baseline.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of `LIVE_BYTES` since the last `reset_peak`.
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

#[inline]
fn note_live(delta: i64) {
    let now = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        note_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        note_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Start a peak-footprint measurement window at the current live level.
fn reset_peak() -> i64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Peak bytes above `baseline` since the matching `reset_peak`.
fn peak_above(baseline: i64) -> i64 {
    (PEAK_BYTES.load(Ordering::Relaxed) - baseline).max(0)
}

/// The queue surface the churn workloads need, so the identical loop can
/// drive the timer wheel and the reference heap (monomorphized: no
/// dynamic dispatch on the hot path).
trait QueueApi {
    fn schedule(&mut self, at: SimTime, v: u64) -> EventToken;
    fn cancel(&mut self, t: EventToken);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
    fn now(&self) -> SimTime;
    fn is_empty(&self) -> bool;
}

impl QueueApi for EventQueue<u64> {
    fn schedule(&mut self, at: SimTime, v: u64) -> EventToken {
        EventQueue::schedule(self, at, v)
    }
    fn cancel(&mut self, t: EventToken) {
        EventQueue::cancel(self, t)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    fn is_empty(&self) -> bool {
        EventQueue::is_empty(self)
    }
}

impl QueueApi for HeapEventQueue<u64> {
    fn schedule(&mut self, at: SimTime, v: u64) -> EventToken {
        HeapEventQueue::schedule(self, at, v)
    }
    fn cancel(&mut self, t: EventToken) {
        HeapEventQueue::cancel(self, t)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        HeapEventQueue::pop(self)
    }
    fn now(&self) -> SimTime {
        HeapEventQueue::now(self)
    }
    fn is_empty(&self) -> bool {
        HeapEventQueue::is_empty(self)
    }
}

/// Event-queue churn: keep ~1k events pending, cancel every 8th, pop one
/// per schedule. Returns pops per second. This is the workload shape every
/// BENCH json has recorded (BENCH_3's 13.9M pops/s baseline).
fn bench_queue_churn<Q: QueueApi>(q: &mut Q, target_pops: u64) -> f64 {
    let mut tokens: VecDeque<EventToken> = VecDeque::new();
    for i in 0..1024u64 {
        tokens.push_back(q.schedule(SimTime::from_nanos(1 + i), i));
    }
    let t0 = Instant::now();
    let mut popped = 0u64;
    let mut i = 1024u64;
    while popped < target_pops {
        if i.is_multiple_of(8) {
            if let Some(t) = tokens.pop_front() {
                q.cancel(t);
            }
        }
        // Schedule ahead of `now` so the queue depth stays steady.
        let at = SimTime::from_nanos(q.now().as_nanos() + 1 + (i % 911));
        tokens.push_back(q.schedule(at, i));
        if tokens.len() > 2048 {
            tokens.pop_front();
        }
        if q.pop().is_some() {
            popped += 1;
        }
        i += 1;
    }
    popped as f64 / t0.elapsed().as_secs_f64()
}

/// Cancellation-heavy churn: every iteration schedules two events and
/// kills one immediately, plus the oldest retained token every other
/// round (still pending deep in the queue, or already fired and a no-op)
/// — half of all scheduled events die before firing, so cancellation
/// dominates: an O(1) unlink in the wheel, a deferred discard in the heap.
fn bench_cancel_heavy<Q: QueueApi>(q: &mut Q, target_pops: u64) -> f64 {
    let mut tokens: VecDeque<EventToken> = VecDeque::new();
    for i in 0..512u64 {
        tokens.push_back(q.schedule(SimTime::from_nanos(1 + i), i));
    }
    let t0 = Instant::now();
    let mut popped = 0u64;
    let mut i = 512u64;
    while popped < target_pops {
        let keep = q.schedule(SimTime::from_nanos(q.now().as_nanos() + 1 + (i % 911)), i);
        let kill = q.schedule(SimTime::from_nanos(q.now().as_nanos() + 1 + (i % 701)), i);
        q.cancel(kill);
        if i.is_multiple_of(2) {
            if let Some(t) = tokens.pop_front() {
                q.cancel(t); // pending deep in the queue, or stale
            }
        }
        tokens.push_back(keep);
        if q.pop().is_some() {
            popped += 1;
        }
        i += 1;
    }
    popped as f64 / t0.elapsed().as_secs_f64()
}

/// Far-future-spill churn: near events mixed with timers landing in every
/// wheel level and seconds-ahead spill entries, then a full drain. The
/// drain walks `now` across the level-1/level-2 windows and finally onto
/// the bare spill list, forcing cascade, migration, and re-anchor.
fn bench_far_future_spill<Q: QueueApi>(q: &mut Q, target_pops: u64) -> f64 {
    let t0 = Instant::now();
    let mut popped = 0u64;
    let mut i = 0u64;
    while popped < target_pops {
        let now = q.now().as_nanos();
        let at = if i.is_multiple_of(61) {
            now + 80_000_000_000 + (i % 101) * 1_000_000 // spill (≥34s ahead)
        } else if i.is_multiple_of(31) {
            now + 2_000_000_000 + (i % 97) * 10_000 // level 3
        } else if i.is_multiple_of(13) {
            now + 50_000_000 + (i % 97) * 1_000 // level 2
        } else if i.is_multiple_of(7) {
            now + 200_000 + (i % 89) * 10 // level 1
        } else {
            now + 1 + (i % 911) // level 0 / front
        };
        q.schedule(SimTime::from_nanos(at), i);
        if q.pop().is_some() {
            popped += 1;
        }
        i += 1;
    }
    // Drain everything that is still pending — this is where the far
    // timers actually fire, crossing every cascade boundary on the way.
    while q.pop().is_some() {
        popped += 1;
    }
    assert!(q.is_empty());
    popped as f64 / t0.elapsed().as_secs_f64()
}

/// Timer re-arm: 64 live timers, each cancelled and rescheduled 1 ms
/// out on every step, while a tick event advances `now` 1 µs per step (so
/// no timer ever fires). Returns (ns per cancel + reschedule, peak live
/// bytes of the loop including the queue itself); the tick's own cost is
/// amortized over the 64 re-arms of its step.
fn bench_rearm(steps: u64) -> (f64, i64) {
    const TIMERS: u64 = 64;
    let live0 = reset_peak();
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut timers: Vec<EventToken> = (0..TIMERS)
        .map(|i| q.schedule(SimTime::from_nanos(1_000_000), i))
        .collect();
    let t0 = Instant::now();
    for step in 0..steps {
        let now = q.now().as_nanos();
        for (i, timer) in timers.iter_mut().enumerate() {
            q.cancel(*timer);
            *timer = q.schedule(SimTime::from_nanos(now + 1_000_000), i as u64);
        }
        q.schedule(SimTime::from_nanos(now + 1_000), u64::MAX);
        let fired = q.pop().map(|(_, v)| v);
        assert_eq!(fired, Some(u64::MAX), "re-armed timer fired at step {step}");
    }
    let ns = t0.elapsed().as_nanos() as f64 / (steps * TIMERS) as f64;
    let peak = peak_above(live0);
    drop(q);
    (ns, peak)
}

/// Tx arbiter service cost: `active` of `queues` queues (spread evenly)
/// are prefilled with `ops` frames in total, then drained round-robin.
/// Returns dequeue ns/op; only the drain is timed.
fn bench_arbiter(queues: usize, active: usize, ops: u64) -> f64 {
    let mut arb: TxArbiter<u64> = TxArbiter::new(queues, u64::MAX);
    let stride = queues / active;
    for i in 0..ops {
        let q = (i as usize % active) * stride + stride / 2;
        arb.enqueue(q, 1448, i);
    }
    let t0 = Instant::now();
    while let Some(frame) = arb.dequeue() {
        std::hint::black_box(frame);
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// A full single-flow run; returns (events/sec, allocs/skb, peak bytes/skb).
fn bench_engine(warmup_ms: u64, measure_ms: u64) -> (f64, f64, f64) {
    let cfg = SimConfig::default();
    let mut world = World::new(cfg);
    hns_workload::single_flow(&cfg.topology, Placement::NicLocalFirst).install(&mut world);
    let a0 = allocs_now();
    let live0 = reset_peak();
    let t0 = Instant::now();
    let report = world
        .try_run(
            Duration::from_millis(warmup_ms),
            Duration::from_millis(measure_ms),
        )
        .expect("single-flow bench run quiesces");
    let wall = t0.elapsed().as_secs_f64();
    let allocs = (allocs_now() - a0) as f64;
    let peak_bytes = peak_above(live0) as f64;
    let events_per_sec = world.events_processed() as f64 / wall;
    // Delivered skbs ≈ delivered bytes / mean skb size (the report's own
    // aggregate); warmup skbs make this a mild overestimate of allocs/skb.
    let skbs = if report.avg_skb_bytes > 0.0 {
        report.delivered_bytes as f64 / report.avg_skb_bytes
    } else {
        1.0
    };
    (
        events_per_sec,
        allocs / skbs.max(1.0),
        peak_bytes / skbs.max(1.0),
    )
}

/// Wall-clock one full sweep of `points` at a given job count.
fn bench_sweep(jobs: usize, points: &[figures::SweepPoint]) -> f64 {
    let t0 = Instant::now();
    let reports = figures::run_sweep_with(jobs, points);
    assert_eq!(reports.len(), points.len());
    t0.elapsed().as_secs_f64()
}

fn main() {
    // Cargo passes bench filters and flags like `--bench`; we honor
    // `--test` (smoke mode), `--wheel-vs-heap` (queue comparison only)
    // and `--out PATH` (where a full run writes its JSON), everything
    // else is ignored.
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let queue_only = args.iter().any(|a| a == "--wheel-vs-heap");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a PATH").clone());

    let host_cpus = hns_par::available_jobs();
    println!("engine_microbench (smoke={smoke}, host_cpus={host_cpus})");

    let queue_pops = if smoke { 200_000 } else { 2_000_000 };
    let wheel_pops_per_sec = bench_queue_churn(&mut EventQueue::new(), queue_pops);
    let heap_pops_per_sec = bench_queue_churn(&mut HeapEventQueue::new(), queue_pops);
    let wheel_speedup = wheel_pops_per_sec / heap_pops_per_sec;
    println!(
        "  event-queue churn: wheel {wheel_pops_per_sec:.0} pops/sec, \
         heap {heap_pops_per_sec:.0} pops/sec ({wheel_speedup:.2}x, {queue_pops} pops)"
    );

    let cancel_pops_per_sec = bench_cancel_heavy(&mut EventQueue::new(), queue_pops);
    let heap_cancel_pops_per_sec = bench_cancel_heavy(&mut HeapEventQueue::new(), queue_pops);
    println!(
        "  cancel-heavy churn: wheel {cancel_pops_per_sec:.0} pops/sec, \
         heap {heap_cancel_pops_per_sec:.0} pops/sec"
    );

    let spill_pops_per_sec = bench_far_future_spill(&mut EventQueue::new(), queue_pops);
    let heap_spill_pops_per_sec = bench_far_future_spill(&mut HeapEventQueue::new(), queue_pops);
    println!(
        "  far-future-spill churn: wheel {spill_pops_per_sec:.0} pops/sec, \
         heap {heap_spill_pops_per_sec:.0} pops/sec"
    );

    let rearm_steps = if smoke { 2_000 } else { 20_000 };
    let (rearm_ns, rearm_peak_bytes) = bench_rearm(rearm_steps);
    println!("  timer re-arm (64 live, +1 ms): {rearm_ns:.1} ns/op, {rearm_peak_bytes} peak bytes");

    if smoke {
        // CI gate: the wheel must not lose to the heap on the recorded
        // workload shape.
        assert!(
            wheel_pops_per_sec >= heap_pops_per_sec,
            "timer wheel slower than heap baseline: \
             {wheel_pops_per_sec:.0} < {heap_pops_per_sec:.0} pops/sec"
        );
        println!("  wheel >= heap: ok");
    }
    if queue_only {
        println!("  --wheel-vs-heap: skipping engine/sweep benches");
        return;
    }

    let arbiter_ops = if smoke { 200_000 } else { 2_000_000 };
    let arbiter_1of24_ns = bench_arbiter(24, 1, arbiter_ops);
    let arbiter_8of24_ns = bench_arbiter(24, 8, arbiter_ops);
    println!(
        "  arbiter dequeue: 1 of 24 queues active {arbiter_1of24_ns:.2} ns/op, \
         8 of 24 {arbiter_8of24_ns:.2} ns/op"
    );

    let (warmup_ms, measure_ms) = if smoke { (5, 8) } else { (20, 30) };
    let (events_per_sec, allocs_per_skb, peak_bytes_per_skb) = bench_engine(warmup_ms, measure_ms);
    println!(
        "  engine single-flow: {events_per_sec:.0} events/sec, \
         {allocs_per_skb:.2} allocs/skb, {peak_bytes_per_skb:.0} peak bytes/skb"
    );

    // Smoke mode keeps the sweep tiny (fig. 13's 3 points, jobs 2) but
    // still drives the parallel path; the real run times the fig. 3e
    // 24-point grid at jobs 1 vs 4.
    let (points, par_jobs) = if smoke {
        (figures::fig13_points(), 2)
    } else {
        (figures::fig03e_points(), 4)
    };
    let seq_secs = bench_sweep(1, &points);
    let par_secs = bench_sweep(par_jobs, &points);
    let speedup = seq_secs / par_secs;
    println!(
        "  sweep {}pts: jobs=1 {seq_secs:.3}s, jobs={par_jobs} {par_secs:.3}s ({speedup:.2}x)",
        points.len()
    );

    if smoke {
        println!("  smoke mode: not writing BENCH json");
        return;
    }

    let Some(path) = out else {
        println!("  no --out PATH: not writing BENCH json");
        return;
    };
    let json = format!(
        "{{\n  \"bench\": \"engine_microbench\",\n  \"host_cpus\": {host_cpus},\n  \
         \"event_queue_pops_per_sec\": {wheel_pops_per_sec:.0},\n  \
         \"heap_event_queue_pops_per_sec\": {heap_pops_per_sec:.0},\n  \
         \"wheel_speedup\": {wheel_speedup:.3},\n  \
         \"cancel_heavy_pops_per_sec\": {cancel_pops_per_sec:.0},\n  \
         \"far_future_spill_pops_per_sec\": {spill_pops_per_sec:.0},\n  \
         \"rearm\": {{\n    \"timers\": 64,\n    \
         \"ns_per_cancel_reschedule\": {rearm_ns:.2},\n    \
         \"peak_live_bytes\": {rearm_peak_bytes}\n  }},\n  \
         \"arbiter\": {{\n    \"queues\": 24,\n    \
         \"dequeue_ns_per_op_1_active\": {arbiter_1of24_ns:.2},\n    \
         \"dequeue_ns_per_op_8_active\": {arbiter_8of24_ns:.2}\n  }},\n  \
         \"engine_events_per_sec\": {events_per_sec:.0},\n  \
         \"allocs_per_skb\": {allocs_per_skb:.3},\n  \
         \"peak_bytes_per_skb\": {peak_bytes_per_skb:.1},\n  \
         \"sweep\": {{\n    \"figure\": \"fig03e\",\n    \"points\": {},\n    \
         \"jobs1_secs\": {seq_secs:.3},\n    \"jobs{par_jobs}_secs\": {par_secs:.3},\n    \
         \"speedup\": {speedup:.3}\n  }}\n}}\n",
        points.len()
    );
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
}
