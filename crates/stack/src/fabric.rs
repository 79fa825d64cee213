//! ToR switch fabric: N hosts behind a shared-buffer switch.
//!
//! The point-to-point [`hns_nic::link::Link`] wires exactly two hosts
//! back-to-back — the paper's testbed. Incast (§4.3) needs many senders
//! converging on one receiver, so this module models a single top-of-rack
//! switch: every source host serializes frames onto its own **ingress**
//! wire at line rate (that clock is what gates the host's transmit loop),
//! every destination hangs off its own egress **port** (a serializing
//! clock identical in form to one `Link` direction), all queues draw on
//! one **shared buffer** (frames that would push total occupancy past the
//! buffer are dropped and charged to the `switch_buffer` taxonomy class),
//! and an optional bank of **uplinks** adds a second serialization stage
//! chosen by deterministic ECMP hashing of the flow id (no RNG anywhere,
//! so parallel sweeps stay byte-identical at any `--jobs` count).
//!
//! The ingress/egress split is what makes incast *possible*: a source is
//! paced only by its own NIC, so `n` senders can legally offer `n` ×
//! line-rate into one egress port, and the difference accumulates in the
//! port queue until the shared buffer overflows — the switch never
//! back-pressures the hosts, it drops, exactly like a real shallow-buffer
//! ToR.
//!
//! ECN marking is depth-based (DCTCP-style "K" threshold): a frame is
//! CE-marked when the egress port already holds at least
//! `ecn_threshold_bytes` of queued frames the moment it is offered.
//!
//! **Identity guarantee:** with two hosts, no uplinks, an infinite buffer
//! and marking off, a fabric is byte-identical to the legacy `Link` with
//! the same rate and propagation delay — each port is exactly one `Link`
//! direction — which is what lets `SimConfig::fabric: None` remain the
//! default without forking the world's transmit path semantics.

use hns_nic::link::TransmitOutcome;
use hns_sim::{Duration, SimTime};

/// ToR fabric parameters. `Copy` so [`crate::SimConfig`] stays `Copy`.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Number of hosts on the rack (ports on the switch). Must be ≥ 2.
    pub hosts: u16,
    /// ECMP uplink count. Zero (the default) models a single-switch rack
    /// with no core hop: frames serialize only at the egress port, which
    /// is required for the 2-host identity with the legacy link.
    pub uplinks: u8,
    /// Per-port line rate in Gbps (paper: 100).
    pub gbps: f64,
    /// One-way propagation delay, host NIC to host NIC through the switch.
    pub propagation: Duration,
    /// Shared egress buffer in bytes. A frame whose admission would push
    /// the summed occupancy of every port past this is dropped
    /// (`switch_buffer` class). `u64::MAX` means never drop.
    pub buffer_bytes: u64,
    /// CE-mark frames offered to a port already holding at least this many
    /// queued bytes (`None` disables marking).
    pub ecn_threshold_bytes: Option<u64>,
}

impl FabricConfig {
    /// A fabric that is provably indistinguishable from the default legacy
    /// link for `hosts` hosts: no uplink stage, infinite shared buffer,
    /// marking off, legacy rate and propagation.
    pub fn neutral(hosts: u16) -> Self {
        FabricConfig {
            hosts,
            uplinks: 0,
            gbps: 100.0,
            propagation: Duration::from_micros(2),
            buffer_bytes: u64::MAX,
            ecn_threshold_bytes: None,
        }
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig::neutral(2)
    }
}

/// One egress port: a serializing resource identical to a `Link` direction.
#[derive(Debug)]
struct Port {
    busy_until: SimTime,
    frames: u64,
    drops: u64,
    bytes: u64,
}

/// The switch itself. One instance replaces the `Link` when
/// `SimConfig::fabric` is set.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    /// Egress port toward each host (indexed by destination host).
    ports: Vec<Port>,
    /// ECMP uplink serialization clocks (empty when `uplinks == 0`).
    uplinks: Vec<SimTime>,
    /// Per-source ingress wire (host NIC → switch): the only clock that
    /// gates a host's transmit loop. With two hosts source `h` and port
    /// `1 - h` carry exactly the same frames at the same times, so this
    /// equals the legacy per-direction `next_free`.
    ingress: Vec<SimTime>,
}

/// Bytes a port backlog of `depth` represents at `gbps` (inverse of
/// [`Duration::for_bytes_at_gbps`]).
fn backlog_bytes(depth: Duration, gbps: f64) -> u64 {
    (depth.as_nanos() as f64 * gbps / 8.0) as u64
}

impl Fabric {
    /// Build a fabric. Panics on fewer than two hosts — a rack of one has
    /// no wire to model.
    pub fn new(config: FabricConfig) -> Self {
        assert!(config.hosts >= 2, "a fabric needs at least two hosts");
        assert!(
            config.hosts <= 256,
            "host indices must fit the event encoding (max 256 hosts)"
        );
        let n = config.hosts as usize;
        let port = |_: usize| Port {
            busy_until: SimTime::ZERO,
            frames: 0,
            drops: 0,
            bytes: 0,
        };
        Fabric {
            ports: (0..n).map(port).collect(),
            uplinks: vec![SimTime::ZERO; config.uplinks as usize],
            ingress: vec![SimTime::ZERO; n],
            config,
        }
    }

    /// Config in use.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Number of hosts on the rack.
    pub fn hosts(&self) -> usize {
        self.ports.len()
    }

    /// Deterministic ECMP: which uplink carries `flow`. Fibonacci hashing
    /// on the flow id — stable across runs, processes and job counts.
    pub fn ecmp_uplink(&self, flow: u64) -> usize {
        debug_assert!(!self.uplinks.is_empty());
        let h = flow.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.uplinks.len() as u64) as usize
    }

    /// Total queued bytes across every egress port and uplink at `now`
    /// (the shared buffer's occupancy). Only clocks still busy at `now`
    /// are converted: an idle port or uplink holds exactly zero bytes.
    /// [`Fabric::transmit`] skips this scan altogether when the buffer
    /// is infinite, since admission cannot fail then.
    pub fn occupancy(&self, now: SimTime) -> u64 {
        let gbps = self.config.gbps;
        let ports: u64 = self
            .ports
            .iter()
            .filter(|p| p.busy_until > now)
            .map(|p| backlog_bytes(p.busy_until.since(now), gbps))
            .sum();
        let uplinks: u64 = self
            .uplinks
            .iter()
            .filter(|&&u| u > now)
            .map(|&u| backlog_bytes(u.since(now), gbps))
            .sum();
        ports + uplinks
    }

    /// Offer a frame of `wire_bytes` from host `src` to host `dst` on
    /// behalf of `flow` (the ECMP key). Mirrors
    /// [`hns_nic::link::Link::transmit`]: serialization starts when the
    /// egress port frees up, the frame arrives `propagation` after it
    /// finishes, and callers gate their transmit loops on
    /// [`Fabric::next_free`].
    pub fn transmit(
        &mut self,
        src: usize,
        dst: usize,
        flow: u64,
        now: SimTime,
        wire_bytes: u64,
    ) -> TransmitOutcome {
        debug_assert_ne!(src, dst, "a host cannot transmit to itself");
        // Shared-buffer admission, judged on the occupancy at the offer.
        // An infinite buffer admits everything, so it skips the scan.
        let buffer = self.config.buffer_bytes;
        let admitted =
            buffer == u64::MAX || self.occupancy(now).saturating_add(wire_bytes) <= buffer;
        let ser = Duration::for_bytes_at_gbps(wire_bytes, self.config.gbps);

        // The frame crosses the source's own wire whatever the switch does
        // with it afterwards — a congested egress port does not slow the
        // sender down, it drops the sender's frames.
        self.ingress[src] = self.ingress[src].max(now) + ser;

        let p = &mut self.ports[dst];
        p.frames += 1;
        p.bytes += wire_bytes;

        // A refused frame consumed its ingress wire time but never
        // occupied the switch, so no switch clock advances.
        if !admitted {
            p.drops += 1;
            return TransmitOutcome::Dropped;
        }

        // Depth-based CE mark, judged on the egress queue as the frame is
        // offered (the DCTCP "K" rule).
        let depth = backlog_bytes(p.busy_until.since(now), self.config.gbps);
        let ce = match self.config.ecn_threshold_bytes {
            Some(k) => depth >= k,
            None => false,
        };

        // Optional ECMP uplink hop: the frame first serializes on its
        // hashed uplink, then on the egress port once both are free.
        let mut available = now;
        if !self.uplinks.is_empty() {
            let u = self.ecmp_uplink(flow);
            let up_start = self.uplinks[u].max(now);
            self.uplinks[u] = up_start + ser;
            available = self.uplinks[u];
        }

        let p = &mut self.ports[dst];
        let start = p.busy_until.max(available);
        p.busy_until = start + ser;

        TransmitOutcome::Delivered {
            arrives: p.busy_until + self.config.propagation,
            ce,
        }
    }

    /// Earliest time host `src` can begin serializing a new frame: when
    /// its own ingress wire frees up. Equals the legacy per-direction
    /// gate at two hosts (ingress `h` and port `1 - h` carry the same
    /// frames).
    pub fn next_free(&self, src: usize) -> SimTime {
        self.ingress[src]
    }

    /// Frames offered toward host `dst` (delivered and dropped alike).
    pub fn frames_to(&self, dst: usize) -> u64 {
        self.ports[dst].frames
    }

    /// Frames dropped at the shared buffer on the way to host `dst`.
    pub fn drops_to(&self, dst: usize) -> u64 {
        self.ports[dst].drops
    }

    /// Bytes offered toward host `dst`.
    pub fn bytes_to(&self, dst: usize) -> u64 {
        self.ports[dst].bytes
    }

    /// Shared-buffer drops summed over every port.
    pub fn total_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_nic::link::{Link, LinkConfig};
    use proptest::prelude::*;

    /// Occupancy as a scan of every port and uplink, idle ones included.
    fn full_scan_occupancy(f: &Fabric, now: SimTime) -> u64 {
        let gbps = f.config.gbps;
        let ports: u64 = f
            .ports
            .iter()
            .map(|p| backlog_bytes(p.busy_until.since(now), gbps))
            .sum();
        let uplinks: u64 = f
            .uplinks
            .iter()
            .map(|&u| backlog_bytes(u.since(now), gbps))
            .sum();
        ports + uplinks
    }

    /// One offer: `(src, dst offset, flow, ns since the previous offer,
    /// wire bytes)`. Gaps reach well past a frame's serialization time so
    /// ports and uplinks go idle between bursts.
    fn offers() -> impl Strategy<Value = Vec<(usize, usize, u64, u64, u64)>> {
        let gap = prop_oneof![Just(0u64), 0u64..800, 0u64..20_000];
        collection::vec(
            (0usize..64, 1usize..64, 0u64..1_000, gap, 78u64..9_079),
            1..200,
        )
    }

    /// Apply one offer to `f` at time `*t`, advancing `*t` first.
    fn offer(
        f: &mut Fabric,
        t: &mut u64,
        (src, dst_off, flow, gap, bytes): (usize, usize, u64, u64, u64),
    ) -> (SimTime, TransmitOutcome) {
        let n = f.hosts();
        let src = src % n;
        let dst = (src + 1 + dst_off % (n - 1)) % n;
        *t += gap;
        let now = SimTime::from_nanos(*t);
        (now, f.transmit(src, dst, flow, now, bytes))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Skipping idle clocks never changes the occupancy: it equals a
        /// scan of every port and uplink at each offer, and at probe
        /// times ahead of it where some clocks have gone idle.
        #[test]
        fn occupancy_matches_full_scan(
            hosts in 2u16..10,
            uplinks in prop_oneof![Just(0u8), 1u8..4],
            buffer in prop_oneof![Just(u64::MAX), 10_000u64..200_000],
            seq in offers(),
            probes in collection::vec(0u64..30_000, 1..4),
        ) {
            let mut f = Fabric::new(FabricConfig {
                uplinks,
                buffer_bytes: buffer,
                ..FabricConfig::neutral(hosts)
            });
            let mut t = 0;
            for o in seq {
                let (now, _) = offer(&mut f, &mut t, o);
                prop_assert_eq!(f.occupancy(now), full_scan_occupancy(&f, now));
                for &ahead in &probes {
                    let at = SimTime::from_nanos(t + ahead);
                    prop_assert_eq!(f.occupancy(at), full_scan_occupancy(&f, at));
                }
            }
        }

        /// An infinite buffer, which skips the admission scan, delivers
        /// exactly what a finite buffer too large to fill delivers.
        #[test]
        fn infinite_buffer_matches_unfillable_finite_buffer(
            hosts in 2u16..10,
            uplinks in prop_oneof![Just(0u8), 1u8..4],
            seq in offers(),
        ) {
            let cfg = FabricConfig { uplinks, ..FabricConfig::neutral(hosts) };
            let mut inf = Fabric::new(cfg);
            let mut fin = Fabric::new(FabricConfig { buffer_bytes: 1 << 40, ..cfg });
            let (mut ti, mut tf) = (0, 0);
            for o in seq {
                let (_, a) = offer(&mut inf, &mut ti, o);
                let (_, b) = offer(&mut fin, &mut tf, o);
                prop_assert!(matches!(a, TransmitOutcome::Delivered { .. }), "{:?}", a);
                prop_assert_eq!(a, b);
            }
            for h in 0..inf.hosts() {
                prop_assert_eq!(inf.next_free(h), fin.next_free(h));
                prop_assert_eq!(inf.frames_to(h), fin.frames_to(h));
            }
            prop_assert_eq!(inf.total_drops(), 0);
            prop_assert_eq!(fin.total_drops(), 0);
        }
    }

    fn neutral() -> Fabric {
        Fabric::new(FabricConfig::neutral(2))
    }

    /// The identity the goldens rest on: a neutral 2-host fabric times
    /// frames exactly like the default legacy link.
    #[test]
    fn two_host_neutral_fabric_matches_link() {
        let mut f = neutral();
        let mut l = Link::new(LinkConfig::default(), 7);
        let offers = [
            (0usize, 9078u64, 0u64),
            (0, 9078, 100),
            (1, 78, 3_000),
            (0, 1578, 5_000),
            (1, 9078, 5_000),
        ];
        for &(src, bytes, at) in &offers {
            let now = SimTime::from_nanos(at);
            let a = f.transmit(src, 1 - src, 42, now, bytes);
            let b = l.transmit(src, now, bytes);
            assert_eq!(a, b, "src={src} bytes={bytes} at={at}");
            assert_eq!(f.next_free(src), l.next_free(src));
        }
        assert_eq!(f.frames_to(1), l.frames(0));
        assert_eq!(f.bytes_to(1), l.bytes(0));
        assert_eq!(f.frames_to(0), l.frames(1));
        assert_eq!(f.total_drops(), 0);
    }

    #[test]
    fn frames_queue_per_port_and_fan_in_serializes() {
        let mut f = Fabric::new(FabricConfig::neutral(4));
        let t0 = SimTime::ZERO;
        // Three senders converge on host 1: their frames share one port
        // clock and serialize back-to-back.
        let mut arrivals = Vec::new();
        for src in [0usize, 2, 3] {
            match f.transmit(src, 1, src as u64, t0, 9078) {
                TransmitOutcome::Delivered { arrives, .. } => arrivals.push(arrives),
                _ => panic!("dropped"),
            }
        }
        assert_eq!(arrivals[1].since(arrivals[0]), Duration::from_nanos(726));
        assert_eq!(arrivals[2].since(arrivals[1]), Duration::from_nanos(726));
        // A frame toward a different host rides an independent port.
        match f.transmit(0, 2, 9, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => {
                assert_eq!(arrives, arrivals[0]);
            }
            _ => panic!("dropped"),
        }
    }

    #[test]
    fn next_free_is_the_source_wire_not_the_congested_port() {
        let mut f = Fabric::new(FabricConfig::neutral(4));
        let t0 = SimTime::ZERO;
        f.transmit(0, 1, 1, t0, 9078);
        assert_eq!(f.next_free(0).as_nanos(), 726);
        // Host 2 never sent: it is free immediately.
        assert_eq!(f.next_free(2), SimTime::ZERO);
        // Host 2 sends into the now-busy port toward host 1. Its frame
        // queues behind host 0's at the switch, but its own wire freed up
        // after one serialization slot — the port's congestion must NOT
        // back-pressure the source.
        match f.transmit(2, 1, 2, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => {
                assert_eq!(arrives.as_nanos(), 726 * 2 + 2_000);
            }
            _ => panic!("dropped"),
        }
        assert_eq!(f.next_free(2).as_nanos(), 726);
    }

    #[test]
    fn shared_buffer_overflow_drops_after_the_source_wire() {
        let mut f = Fabric::new(FabricConfig {
            buffer_bytes: 20_000,
            ..FabricConfig::neutral(4)
        });
        let t0 = SimTime::ZERO;
        let mut delivered = 0;
        let mut dropped = 0;
        for i in 0..10 {
            match f.transmit(0, 1, i, t0, 9078) {
                TransmitOutcome::Delivered { .. } => delivered += 1,
                TransmitOutcome::Dropped => dropped += 1,
            }
        }
        assert!(dropped > 0, "10 jumbo frames exceed a 20KB buffer");
        assert_eq!(f.total_drops(), dropped);
        assert_eq!(f.drops_to(1), dropped);
        assert_eq!(f.frames_to(1), 10);
        // Every frame — dropped ones included — crossed the source's own
        // wire; only the switch clocks skip the refused frames.
        assert_eq!(f.next_free(0).as_nanos(), 726 * (delivered + dropped));
        let queued = f.occupancy(t0);
        assert!(
            queued <= 20_000,
            "admission keeps occupancy within the buffer: {queued}"
        );
        // Once the queue drains, the buffer admits frames again.
        let later = SimTime::from_nanos(1_000_000);
        assert!(matches!(
            f.transmit(0, 1, 99, later, 9078),
            TransmitOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn occupancy_drains_with_time() {
        let mut f = neutral();
        f.transmit(0, 1, 1, SimTime::ZERO, 9078);
        f.transmit(0, 1, 1, SimTime::ZERO, 9078);
        let full = f.occupancy(SimTime::ZERO);
        assert!(full > 17_000, "two jumbo frames queued: {full}");
        let half = f.occupancy(SimTime::from_nanos(726));
        assert!(half < full && half > 8_000, "one frame left: {half}");
        assert_eq!(f.occupancy(SimTime::from_nanos(2_000)), 0);
    }

    #[test]
    fn ecn_marks_at_depth_threshold() {
        let mut f = Fabric::new(FabricConfig {
            ecn_threshold_bytes: Some(30_000),
            ..FabricConfig::neutral(3)
        });
        let t0 = SimTime::ZERO;
        let mut first_ce = None;
        for i in 0..8 {
            if let TransmitOutcome::Delivered { ce, .. } = f.transmit(0, 1, 1, t0, 9078) {
                if ce && first_ce.is_none() {
                    first_ce = Some(i);
                }
            }
        }
        // Depth crosses 30KB once four 9078B frames are queued ahead.
        assert_eq!(first_ce, Some(4));
        // An idle port never marks.
        assert!(matches!(
            f.transmit(2, 0, 5, SimTime::from_nanos(1_000_000), 9078),
            TransmitOutcome::Delivered { ce: false, .. }
        ));
    }

    #[test]
    fn ecmp_is_deterministic_and_spreads() {
        let f = Fabric::new(FabricConfig {
            uplinks: 4,
            ..FabricConfig::neutral(8)
        });
        let g = Fabric::new(FabricConfig {
            uplinks: 4,
            ..FabricConfig::neutral(8)
        });
        let mut used = [false; 4];
        for flow in 0..64u64 {
            let u = f.ecmp_uplink(flow);
            assert_eq!(u, g.ecmp_uplink(flow), "hash must not depend on state");
            used[u] = true;
        }
        assert!(
            used.iter().all(|&b| b),
            "64 flows should touch all 4 uplinks"
        );
    }

    #[test]
    fn uplink_stage_adds_serialization() {
        let mut with = Fabric::new(FabricConfig {
            uplinks: 1,
            ..FabricConfig::neutral(4)
        });
        let mut without = Fabric::new(FabricConfig::neutral(4));
        let t0 = SimTime::ZERO;
        // Two frames to *different* destinations share the single uplink:
        // the second is delayed behind the first even though its egress
        // port is idle.
        let a1 = match with.transmit(0, 1, 1, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        let a2 = match with.transmit(2, 3, 2, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        assert_eq!(a2.since(a1), Duration::from_nanos(726));
        // Without the uplink they are independent, and each arrival is one
        // serialization slot earlier (no second hop).
        without.transmit(0, 1, 1, t0, 9078);
        let b2 = match without.transmit(2, 3, 2, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        assert_eq!(a1.since(b2), Duration::from_nanos(726));
    }
}
