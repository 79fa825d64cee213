//! Layer kernels: isolated loops over one layer's public functions, timed
//! in ns per operation on an op sequence sized from the workload's own
//! report counts. Inputs are drawn from the workload seed and generated
//! before the clock starts.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use hns_conn::{Conn, ConnId, FlowTable, TimeWaitRing};
use hns_mem::{DcaCache, FrameArena, PageAllocator};
use hns_monitor::DdSketch;
use hns_nic::{Link, LinkConfig};
use hns_proto::{ReassemblyQueue, SackBlocks, Scoreboard};
use hns_sim::{Duration, EventQueue, SimRng, SimTime};
use hns_stack::{Fabric, FabricConfig};

/// Timed repetitions per kernel; the median is reported.
const REPEATS: usize = 5;
/// Op counts are clamped to this range so every kernel is long enough to
/// time and short enough to keep the traced run bounded.
const MIN_OPS: u64 = 50_000;
const MAX_OPS: u64 = 1_000_000;

/// How big each kernel's op sequence is, from the counts of one pass.
pub struct Sizing {
    pub seed: u64,
    /// Engine events.
    pub events: u64,
    /// Data frames: delivered bytes over the MSS, summed per experiment.
    pub frames: u64,
    /// Payload bytes per frame (delivered-byte-weighted MSS).
    pub mss: u32,
    /// Retransmissions per data frame: the hole rate of the kernels.
    pub loss: f64,
    /// Connections opened.
    pub conns: u64,
    /// Peak concurrent live connections.
    pub live_conns: u64,
    /// Peak TIME_WAIT occupancy.
    pub time_wait: u64,
}

fn clamp_ops(n: u64) -> u64 {
    n.clamp(MIN_OPS, MAX_OPS)
}

/// Median over [`REPEATS`] runs of `run`, which returns (elapsed ns, ops).
fn ns_per_op(mut run: impl FnMut() -> (u64, u64)) -> f64 {
    let mut xs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (ns, ops) = run();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    xs.sort_by(f64::total_cmp);
    xs[REPEATS / 2]
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// `EventQueue` schedule / cancel / pop at a steady pending depth, one
/// cancellation per eight schedules.
pub fn queue(s: &Sizing) -> f64 {
    const DEPTH: u64 = 1024;
    let ops = clamp_ops(s.events);
    let mut rng = SimRng::new(s.seed);
    let delays: Vec<u64> = (0..ops).map(|_| rng.range(1, 20_000)).collect();
    ns_per_op(|| {
        let mut q = EventQueue::<u64>::new();
        for i in 0..DEPTH {
            q.schedule(SimTime::from_nanos(delays[i as usize]), i);
        }
        let t = Instant::now();
        let mut done = 0u64;
        let mut i = 0usize;
        while done < ops {
            let at = q.now() + Duration::from_nanos(delays[i % delays.len()]);
            let token = q.schedule(at, done);
            if i % 8 == 7 {
                q.cancel(token);
                q.schedule(at, done);
                done += 2;
            }
            black_box(q.pop());
            done += 2;
            i += 1;
        }
        (elapsed_ns(t), done)
    })
}

/// `Link::transmit` at line rate in one direction.
pub fn link(s: &Sizing) -> f64 {
    let frames = clamp_ops(s.frames);
    let wire_bytes = (s.mss + hns_proto::HEADER_BYTES) as u64;
    ns_per_op(|| {
        let mut l = Link::new(LinkConfig::default(), s.seed);
        let t = Instant::now();
        for _ in 0..frames {
            let now = l.next_free(0);
            black_box(l.transmit(0, now, wire_bytes));
        }
        (elapsed_ns(t), frames)
    })
}

/// `Fabric::transmit` at 8→1 fan-in on the incast switch: eight senders
/// at line rate into one egress port of the shared buffer.
pub fn fabric(s: &Sizing) -> f64 {
    let frames = clamp_ops(s.frames);
    let wire_bytes = (s.mss + hns_proto::HEADER_BYTES) as u64;
    let ser = Duration::for_bytes_at_gbps(wire_bytes, 100.0).as_nanos();
    let mut cfg = FabricConfig::neutral(9);
    cfg.uplinks = 4;
    cfg.buffer_bytes = hns_core::figures::INCAST_BUFFER_BYTES;
    cfg.ecn_threshold_bytes = Some(hns_core::figures::INCAST_ECN_THRESHOLD);
    ns_per_op(|| {
        let mut f = Fabric::new(cfg);
        let t = Instant::now();
        for i in 0..frames {
            let sender = (i % 8) as u16;
            let now = SimTime::from_nanos(i / 8 * ser);
            let src = hns_workload::fabric_sender_host(sender);
            black_box(f.transmit(src, 1, sender as u64, now, wire_bytes));
        }
        (elapsed_ns(t), frames)
    })
}

/// Segment arrival order at the receiver: each segment is lost with
/// probability `loss` and its retransmission arrives 32 segments later.
fn arrivals(s: &Sizing) -> Vec<u64> {
    let n = clamp_ops(s.frames);
    let mss = s.mss as u64;
    let mut rng = SimRng::new(s.seed ^ 0x5eed);
    let mut late: VecDeque<(u64, u64)> = VecDeque::new();
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        if rng.chance(s.loss) {
            late.push_back((i + 32, i * mss));
        } else {
            out.push(i * mss);
        }
        while late.front().is_some_and(|&(due, _)| due <= i) {
            out.push(late.pop_front().expect("front checked").1);
        }
    }
    out.extend(late.into_iter().map(|(_, seq)| seq));
    out
}

/// `ReassemblyQueue::insert` over the arrival order of [`arrivals`].
pub fn reassembly(s: &Sizing) -> f64 {
    let order = arrivals(s);
    ns_per_op(|| {
        let mut q = ReassemblyQueue::new();
        let t = Instant::now();
        for &seq in &order {
            black_box(q.insert(seq, s.mss));
        }
        (elapsed_ns(t), order.len() as u64)
    })
}

/// `Scoreboard::merge` + `next_lost_gap` on the ACK stream (cumulative
/// ACK and SACK blocks after each arrival) the receiver would send.
pub fn scoreboard(s: &Sizing) -> f64 {
    let mut q = ReassemblyQueue::new();
    let acks: Vec<(SackBlocks, u64)> = arrivals(s)
        .into_iter()
        .map(|seq| {
            q.insert(seq, s.mss);
            (q.sack_blocks(), q.rcv_nxt())
        })
        .collect();
    ns_per_op(|| {
        let mut sb = Scoreboard::new();
        let t = Instant::now();
        for (blocks, una) in &acks {
            sb.merge(blocks, *una);
            black_box(sb.next_lost_gap(*una, *una, s.mss));
        }
        (elapsed_ns(t), acks.len() as u64)
    })
}

/// `FlowTable` install / get_mut / remove with the live set held at the
/// workload's concurrency high-water mark.
pub fn flow_table(s: &Sizing) -> f64 {
    let live = s.live_conns.max(64);
    let rounds = clamp_ops(s.conns);
    let shards = hns_conn::ChurnConfig::default().shards;
    let mut rng = SimRng::new(s.seed ^ 0x7ab1e);
    let picks: Vec<u64> = (0..rounds).map(|_| rng.next_below(live)).collect();
    ns_per_op(|| {
        let mut table = FlowTable::new(shards);
        let mut ids: VecDeque<ConnId> = (0..live)
            .map(|i| table.install(Conn::new(i as u16 % 24, 0, SimTime::ZERO)))
            .collect();
        let t = Instant::now();
        for (i, &pick) in picks.iter().enumerate() {
            let id = table.install(Conn::new(i as u16 % 24, 0, SimTime::ZERO));
            ids.push_back(id);
            if let Some(c) = table.get_mut(ids[pick as usize]) {
                c.req_done += 1;
            }
            let oldest = ids.pop_front().expect("live set is never empty");
            black_box(table.remove(oldest));
        }
        (elapsed_ns(t), 3 * rounds)
    })
}

/// `TimeWaitRing` insert / expire_one at the workload's TIME_WAIT
/// high-water occupancy.
pub fn time_wait(s: &Sizing) -> f64 {
    let depth = s.time_wait.max(64);
    let rounds = clamp_ops(s.conns);
    ns_per_op(|| {
        let mut ring = TimeWaitRing::new();
        let mut ops = 0u64;
        let t = Instant::now();
        for i in 0..rounds {
            let now = SimTime::from_nanos(i * 1000);
            ring.insert(now + Duration::from_nanos(depth * 1000), i);
            ops += 1;
            while let Some(c) = ring.expire_one(now) {
                black_box(c);
                ops += 1;
            }
        }
        (elapsed_ns(t), ops)
    })
}

/// `PageAllocator` alloc + free of one frame's pages, round-robin over a
/// host's 24 cores.
pub fn page_pool(s: &Sizing) -> f64 {
    let frames = clamp_ops(s.frames);
    let pages = hns_mem::pages_for((s.mss + hns_proto::HEADER_BYTES) as u64);
    ns_per_op(|| {
        let mut pool = PageAllocator::new(24, 6);
        let t = Instant::now();
        for i in 0..frames {
            let core = (i % 24) as u16;
            black_box(pool.alloc(core, pages));
            black_box(pool.free(core, pages, true));
        }
        (elapsed_ns(t), 2 * frames)
    })
}

/// `DcaCache` insert at DMA + `probe_copy` at copy, with a ring's worth
/// (1024 frames) in flight between them.
pub fn dca(s: &Sizing) -> f64 {
    const IN_FLIGHT: usize = 1024;
    let frames = clamp_ops(s.frames);
    ns_per_op(|| {
        let mut arena = FrameArena::new();
        let mut cache = DcaCache::with_defaults(true, s.seed);
        let mut ring = VecDeque::with_capacity(IN_FLIGHT + 1);
        let t = Instant::now();
        for _ in 0..frames {
            let id = arena.insert(s.mss, 0);
            cache.insert(&mut arena, id);
            ring.push_back(id);
            if ring.len() > IN_FLIGHT {
                let old = ring.pop_front().expect("ring is over-full");
                black_box(cache.probe_copy(&arena, old));
                arena.release(old);
            }
        }
        (elapsed_ns(t), frames)
    })
}

/// `DdSketch::record` of exponentially distributed residencies (mean 5 µs).
pub fn sketch(s: &Sizing) -> f64 {
    let n = clamp_ops(s.frames);
    let mut rng = SimRng::new(s.seed ^ 0x5e7c);
    let values: Vec<u64> = (0..n).map(|_| rng.exp(5_000.0) as u64 + 1).collect();
    ns_per_op(|| {
        let mut sk = DdSketch::new(0.01);
        let t = Instant::now();
        for &v in &values {
            sk.record(v);
        }
        black_box(sk.count());
        (elapsed_ns(t), n)
    })
}
