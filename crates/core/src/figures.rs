//! Every table and figure of the paper's evaluation (§3), plus the
//! extensions and ablations built on it, as runnable experiment sets.
//! EXPERIMENTS.md records paper-vs-measured for all of them.
//!
//! Each figure is declared once, as data: a `*_points()` function
//! returning its [`SweepPoint`]s, listed in the [`FIGURES`] registry that
//! `hostnet figures` runs. Sweeps execute through [`run_sweep_with`] on
//! `hns-par`'s work-stealing thread pool. Every point is an independent,
//! deterministic run (its own world, its own RNG seeds), and results come
//! back in declared order, so sweep output is byte-identical whatever the
//! job count.

use hns_conn::AdmissionPolicy;
use hns_metrics::Report;
use hns_proto::cc::CcAlgo;
use hns_stack::config::RcvBufPolicy;
use hns_stack::{DatapathKind, OptLevel, SimConfig};

use crate::experiment::{Experiment, ScenarioKind};
use crate::Placement;

/// Flow counts the multi-flow figures sweep (paper: 1, 8, 16, 24).
pub const FLOW_SWEEP: [u16; 4] = [1, 8, 16, 24];

type ConfigureFn = Box<dyn Fn(&mut SimConfig) + Send + Sync>;

/// One data-declared point of a figure sweep: a scenario plus the
/// configuration delta and label that distinguish it from its neighbors.
/// Building is cheap; all the cost is in [`SweepPoint::run`].
pub struct SweepPoint {
    /// Report label.
    pub label: String,
    /// Traffic pattern.
    pub scenario: ScenarioKind,
    level: Option<OptLevel>,
    configure: Option<ConfigureFn>,
}

impl SweepPoint {
    /// A point running `scenario` at the default configuration.
    pub fn new(scenario: ScenarioKind, label: impl Into<String>) -> Self {
        SweepPoint {
            label: label.into(),
            scenario,
            level: None,
            configure: None,
        }
    }

    /// Run at one of the paper's incremental optimization levels.
    pub fn at_level(mut self, level: OptLevel) -> Self {
        self.level = Some(level);
        self
    }

    /// Apply a configuration delta on top of the (possibly leveled)
    /// defaults. The closure must be `Send + Sync`: sweep points are
    /// shared with pool workers.
    pub fn configure(mut self, f: impl Fn(&mut SimConfig) + Send + Sync + 'static) -> Self {
        self.configure = Some(Box::new(f));
        self
    }

    /// Materialize the [`Experiment`] this point declares.
    pub fn build(&self) -> Experiment {
        let mut e = Experiment::new(self.scenario);
        if let Some(level) = self.level {
            e = e.at_level(level);
        }
        if let Some(f) = &self.configure {
            f(&mut e.cfg);
        }
        e.labeled(self.label.clone())
    }

    /// Build and run, returning the report.
    pub fn run(&self) -> Report {
        self.build().run()
    }
}

/// Run a sweep on an explicit pool size. `jobs <= 1` is the plain
/// sequential loop; any other value produces byte-identical reports in
/// the same order (each run owns its world and RNGs, and `map_ordered`
/// collects by declared index).
pub fn run_sweep_with(jobs: usize, points: &[SweepPoint]) -> Vec<Report> {
    hns_par::map_ordered(jobs, points, |p| p.run())
}

/// Fig. 3a-d points: single flow under incremental optimizations.
pub fn fig03_points() -> Vec<SweepPoint> {
    OptLevel::ALL
        .into_iter()
        .map(|level| {
            SweepPoint::new(ScenarioKind::Single, format!("single/{}", level.label()))
                .at_level(level)
        })
        .collect()
}

/// Ring sizes × buffer sizes fig. 3e sweeps.
const FIG03E_RINGS: [u32; 6] = [128, 256, 512, 1024, 2048, 4096];
const FIG03E_BUFFERS: [(&str, Option<u64>); 4] = [
    ("default", None),
    ("3200KB", Some(3200 * 1024)),
    ("6400KB", Some(6400 * 1024)),
    ("12800KB", Some(12800 * 1024)),
];

/// Fig. 3e points: cache miss rate and throughput over the full NIC ring
/// × TCP Rx buffer grid (24 runs), declared in row-major order.
pub fn fig03e_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for ring in FIG03E_RINGS {
        for (label, buf) in FIG03E_BUFFERS {
            out.push(
                SweepPoint::new(ScenarioKind::Single, format!("ring{ring}/{label}")).configure(
                    move |c| {
                        c.stack.rx_descriptors = ring;
                        if let Some(b) = buf {
                            c.stack.rcvbuf = RcvBufPolicy::Fixed(b);
                        }
                    },
                ),
            );
        }
    }
    out
}

/// Rx buffer sizes (KB) fig. 3f sweeps.
const FIG03F_BUFFERS_KB: [u64; 8] = [100, 200, 400, 800, 1600, 3200, 6400, 12800];

/// Fig. 3f points: NAPI→start-of-copy latency, one run per Rx buffer
/// size.
pub fn fig03f_points() -> Vec<SweepPoint> {
    FIG03F_BUFFERS_KB
        .into_iter()
        .map(|kb| {
            SweepPoint::new(ScenarioKind::Single, format!("rcvbuf/{kb}KB"))
                .configure(move |c| c.stack.rcvbuf = RcvBufPolicy::Fixed(kb * 1024))
        })
        .collect()
}

/// Fig. 3g points (ours, beyond the paper): per-stage latency breakdown
/// from the skb lifecycle tracer, as traced one-to-one runs over the flow
/// sweep. Where the paper splits *cycles* by component, this splits
/// *packet time* by pipeline stage — showing, e.g., socket-queue residency
/// growing as receiver cores saturate. Each report carries
/// `stage_latency` percentiles and the end-to-end row. These points carry
/// `cfg.trace` enabled, so they double as the parallel-determinism check
/// for traced runs.
pub fn fig03g_points() -> Vec<SweepPoint> {
    FLOW_SWEEP
        .into_iter()
        .map(|flows| {
            let kind = ScenarioKind::OneToOne { flows };
            SweepPoint::new(kind, format!("latency/{}", kind.label()))
                .configure(|c| c.trace = hns_trace::TraceConfig::enabled())
        })
        .collect()
}

/// Fig. 4 points: single flow, NIC-local vs NIC-remote NUMA node.
pub fn fig04_points() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new(ScenarioKind::Single, "nic-local"),
        SweepPoint::new(ScenarioKind::SingleNicRemote, "nic-remote"),
    ]
}

/// Fig. 5 points: one-to-one over the flow × optimization-level grid;
/// breakdowns come from the aRFS rows.
pub fn fig05_points() -> Vec<SweepPoint> {
    level_sweep_points(|flows| ScenarioKind::OneToOne { flows })
}

/// Fig. 6 points: incast over the flow × optimization-level grid.
pub fn fig06_points() -> Vec<SweepPoint> {
    level_sweep_points(|flows| ScenarioKind::Incast { flows })
}

/// Fig. 7 points: outcast over the flow × optimization-level grid. The
/// paper reports throughput-per-*sender*-core; the report's sender side
/// carries the relevant cores/breakdown.
pub fn fig07_points() -> Vec<SweepPoint> {
    level_sweep_points(|flows| ScenarioKind::Outcast { flows })
}

/// Fig. 8 points: all-to-all with x = 1, 8, 16, 24 cores per side, over
/// every optimization level.
pub fn fig08_points() -> Vec<SweepPoint> {
    level_sweep_points(|x| ScenarioKind::AllToAll { x })
}

/// Connection arrival rates (conn/s) the churn figure sweeps.
pub const CONN_RATE_SWEEP: [f64; 4] = [50e3, 100e3, 200e3, 400e3];

/// RPC payload sizes (bytes) the churn figure sweeps at a fixed rate.
pub const CONN_RPC_SIZES: [u32; 4] = [65536, 16384, 4096, 1024];

/// Fig. 5 extension points: connection-rate scaling (`hns-conn`).
///
/// The paper's workloads reuse long-lived connections, so per-connection
/// costs never show up in its breakdowns. This sweep drives open-loop
/// connection arrivals — pure handshakes across the rate sweep, then
/// one-RPC connections with shrinking payloads at a fixed 100k conn/s — so
/// the reports expose where cycles go when the connection lifecycle itself
/// is the workload: per-byte categories (data copy) fade and
/// per-connection categories (memory management, locking, TCP/IP state)
/// dominate as RPCs shrink.
pub fn fig05_conn_rate_points() -> Vec<SweepPoint> {
    let mut out: Vec<SweepPoint> = CONN_RATE_SWEEP
        .into_iter()
        .map(|rate| {
            SweepPoint::new(
                ScenarioKind::Churn {
                    churn: hns_workload::churn_open_loop(rate),
                },
                format!("conn-rate/handshake/{:.0}k", rate / 1e3),
            )
        })
        .collect();
    for size in CONN_RPC_SIZES {
        out.push(SweepPoint::new(
            ScenarioKind::Churn {
                churn: hns_workload::churn_short_rpc(100e3, size),
            },
            format!("conn-rate/rpc/{size}B"),
        ));
    }
    out
}

/// Concurrent-client counts fig_capacity sweeps at fixed server cores
/// (each contributes [`hns_workload::CAPACITY_CLIENT_CPS`] attempts/s).
pub const CAPACITY_CLIENTS: [u32; 4] = [125, 250, 500, 1000];

/// Admission policies fig_capacity compares at every client count.
pub const CAPACITY_POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::Drop,
    AdmissionPolicy::Queue,
    AdmissionPolicy::Shed,
];

/// Overload extension points: server capacity under admission control.
///
/// Goodput and p99 handshake/RPC latency versus concurrent clients at
/// fixed cores, once per admission policy. Slow clients pin accept-queue
/// slots and socket memory for heavy-tailed think times, so past the knee
/// the policies diverge: `drop` pushes retries (and handshake tail
/// latency) onto clients, `queue` rides SYN cookies statelessly past the
/// queue bound, and `shed` refuses fast to keep the tail flat at the cost
/// of completed connections. Policies are outermost so each policy's knee
/// reads as four consecutive rows.
pub fn fig_capacity_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for policy in CAPACITY_POLICIES {
        for clients in CAPACITY_CLIENTS {
            out.push(SweepPoint::new(
                ScenarioKind::Churn {
                    churn: hns_workload::churn_capacity(clients, policy),
                },
                format!("capacity/{}/{}c", policy.label(), clients),
            ));
        }
    }
    out
}

/// Fan-in degrees fig_incast sweeps (sender hosts per receiver).
pub const INCAST_SENDERS: [u16; 5] = [1, 2, 4, 8, 16];

/// Shared switch buffer fig_incast configures (bytes). Shallow enough
/// that ~8 senders' initial windows overrun it.
pub const INCAST_BUFFER_BYTES: u64 = 256 * 1024;

/// Per-port ECN marking threshold for the ecn-on rows (bytes): about one
/// BDP at 100Gbps / ~5us RTT, a quarter of the shared buffer.
pub const INCAST_ECN_THRESHOLD: u64 = 64 * 1024;

/// Fabric extension points: incast collapse and ECN recovery at the ToR
/// switch.
///
/// The paper's two-host testbed can't see the switch: every drop it
/// reports is host-side (rings, backlogs, sockets). This sweep puts `n`
/// sender hosts behind a shared-buffer ToR model and drives them into one
/// receiver. With ECN off, aggregate goodput collapses past the fan-in
/// knee — concurrent windows overrun the shallow shared buffer, the
/// `switch_buffer` drop class fills, and p99 latency blows up with
/// retransmission timeouts. With ECN marking at one BDP of port depth,
/// senders back off on echoed marks before the buffer overflows and
/// goodput stays near the line rate.
///
/// ECN off/on × fan-in degree, ECN outermost so each marking mode's
/// collapse curve reads as five consecutive rows. Every point sizes the
/// fabric to `senders + 1` hosts over 4 ECMP uplinks with the shared
/// [`INCAST_BUFFER_BYTES`] switch buffer.
pub fn fig_incast_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for (mode, ecn) in [("ecn-off", None), ("ecn-on", Some(INCAST_ECN_THRESHOLD))] {
        for senders in INCAST_SENDERS {
            out.push(
                SweepPoint::new(
                    ScenarioKind::FabricIncast { senders },
                    format!("incast/{mode}/{senders}s"),
                )
                .configure(move |c| {
                    let mut f = hns_stack::FabricConfig::neutral((senders + 1).max(2));
                    f.uplinks = 4;
                    f.buffer_bytes = INCAST_BUFFER_BYTES;
                    f.ecn_threshold_bytes = ecn;
                    c.fabric = Some(f);
                }),
            );
        }
    }
    out
}

/// Scenario grid the cross-backend comparison runs every datapath
/// against: the paper's single-flow microscope plus a multi-flow
/// one-to-one so per-core effects (polling-core saturation, descriptor
/// batching) show up under contention.
pub const BACKEND_SCENARIOS: [(&str, ScenarioKind); 2] = [
    ("single", ScenarioKind::Single),
    ("o2o-8", ScenarioKind::OneToOne { flows: 8 }),
];

/// Backend extension points (§4): where do the cycles go under three
/// datapath architectures?
///
/// The in-kernel baseline, a full TCP offload (host taxonomy collapses to
/// copy + syscall + descriptor bookkeeping), and a kernel-bypass busy-poll
/// stack (descriptor work on a dedicated polling core, nothing else).
/// Application bytes and wire behaviour are identical across backends;
/// only the host cycle ledger moves. Expected ordering: bypass ≥ TOE ≥
/// in-kernel goodput-per-host-core. The grid is datapath × scenario,
/// backends outermost so each backend's rows group together.
pub fn fig_backend_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for kind in DatapathKind::ALL {
        for (name, scenario) in BACKEND_SCENARIOS {
            out.push(
                SweepPoint::new(scenario, format!("backend/{}/{}", kind.label(), name))
                    .configure(move |c| c.datapath = kind),
            );
        }
    }
    out
}

/// The flow × optimization-level grid figs. 5–8 share.
fn level_sweep_points(mk: impl Fn(u16) -> ScenarioKind) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for flows in FLOW_SWEEP {
        for level in OptLevel::ALL {
            let kind = mk(flows);
            out.push(
                SweepPoint::new(kind, format!("{}/{}", kind.label(), level.label()))
                    .at_level(level),
            );
        }
    }
    out
}

/// Loss rates fig. 9 sweeps.
const FIG09_LOSS: [f64; 4] = [0.0, 1.5e-4, 1.5e-3, 1.5e-2];

/// Fig. 9 points: single flow, one run per in-network loss rate.
pub fn fig09_points() -> Vec<SweepPoint> {
    FIG09_LOSS
        .into_iter()
        .map(|loss| {
            SweepPoint::new(ScenarioKind::Single, format!("loss/{loss}"))
                .configure(move |c| c.link.loss = hns_faults::LossModel::uniform(loss))
        })
        .collect()
}

/// Fig. 9 extension points: resilience under *bursty* loss and link
/// flaps.
///
/// The paper's Fig. 9 sweeps only uniform random loss. Real networks lose
/// frames in bursts (shallow-buffer overflow) and in contiguous outages
/// (link flaps). This sweep holds the long-run loss rate at the paper's
/// 1.5e-3 midpoint while growing the mean burst length, then injects
/// one-shot flaps of increasing duration mid-measurement. Each report's
/// drop taxonomy attributes every lost frame.
pub fn fig09b_points() -> Vec<SweepPoint> {
    use hns_faults::{LossModel, PhaseSchedule};
    use hns_sim::Duration;

    let mut out = Vec::new();
    for mean_burst in [1.0, 8.0, 32.0] {
        out.push(
            SweepPoint::new(
                ScenarioKind::Single,
                format!("burst-loss/1.5e-3x{mean_burst:.0}"),
            )
            .configure(move |c| c.link.loss = LossModel::bursty(1.5e-3, mean_burst)),
        );
    }
    for flap_us in [250u64, 1000, 4000] {
        out.push(
            SweepPoint::new(ScenarioKind::Single, format!("flap/{flap_us}us")).configure(
                move |c| {
                    // One outage in the middle of the default 30ms measurement
                    // window (warmup is 20ms).
                    c.link.flap = Some(PhaseSchedule::once(
                        Duration::from_millis(30),
                        Duration::from_micros(flap_us),
                    ));
                },
            ),
        );
    }
    out
}

/// Request sizes (KB) fig. 10a/b sweeps.
const FIG10_SIZES_KB: [u32; 4] = [4, 16, 32, 64];

/// Fig. 10a/b points: 16:1 RPC incast, one run per request size.
pub fn fig10_points() -> Vec<SweepPoint> {
    FIG10_SIZES_KB
        .into_iter()
        .map(|kb| {
            SweepPoint::new(
                ScenarioKind::RpcIncast {
                    clients: 16,
                    size: kb * 1024,
                    server: Placement::NicLocalFirst,
                },
                format!("rpc/{kb}KB"),
            )
        })
        .collect()
}

/// Fig. 10c points: 4KB RPC server NIC-local vs NIC-remote.
pub fn fig10c_points() -> Vec<SweepPoint> {
    [Placement::NicLocalFirst, Placement::NicRemote]
        .into_iter()
        .map(|server| {
            SweepPoint::new(
                ScenarioKind::RpcIncast {
                    clients: 16,
                    size: 4096,
                    server,
                },
                match server {
                    Placement::NicLocalFirst => "rpc-4KB/nic-local",
                    Placement::NicRemote => "rpc-4KB/nic-remote",
                },
            )
        })
        .collect()
}

/// Short-flow counts fig. 11 sweeps.
const FIG11_SHORTS: [u16; 4] = [0, 1, 4, 16];

/// Fig. 11 points: one long flow + n short flows on a single core pair.
pub fn fig11_points() -> Vec<SweepPoint> {
    FIG11_SHORTS
        .into_iter()
        .map(|shorts| {
            let kind = ScenarioKind::Mixed { shorts, size: 4096 };
            SweepPoint::new(kind, kind.label())
        })
        .collect()
}

/// Fig. 12 points: DCA disabled and IOMMU enabled vs the default.
pub fn fig12_points() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new(ScenarioKind::Single, "default"),
        SweepPoint::new(ScenarioKind::Single, "dca-disabled").configure(|c| c.stack.dca = false),
        SweepPoint::new(ScenarioKind::Single, "iommu-enabled").configure(|c| c.stack.iommu = true),
    ]
}

/// Congestion-control algorithms fig. 13 compares.
const FIG13_CCS: [(&str, CcAlgo); 3] = [
    ("cubic", CcAlgo::Cubic),
    ("bbr", CcAlgo::Bbr),
    ("dctcp", CcAlgo::Dctcp),
];

/// Fig. 13 points: single flow, one run per congestion-control
/// algorithm.
pub fn fig13_points() -> Vec<SweepPoint> {
    FIG13_CCS
        .into_iter()
        .map(|(name, cc)| {
            SweepPoint::new(ScenarioKind::Single, format!("cc/{name}"))
                .configure(move |c| c.stack.cc = cc)
        })
        .collect()
}

/// Table 2 points: the four receive-steering mechanisms on a single flow.
/// aRFS (hardware, app-core steering) wins; RFS matches placement but
/// pays software cycles; RSS/RPS land on a remote node, lose DCA and pay
/// lock contention.
pub fn table2_points() -> Vec<SweepPoint> {
    use hns_nic::steering::SteeringMode;
    [
        ("rss", SteeringMode::Rss),
        ("rps", SteeringMode::Rps),
        ("rfs", SteeringMode::Rfs),
        ("arfs", SteeringMode::Arfs),
    ]
    .into_iter()
    .map(|(name, mode)| {
        SweepPoint::new(ScenarioKind::Single, format!("steering/{name}"))
            .configure(move |c| c.stack.steering = mode)
    })
    .collect()
}

/// Footnote 3 points: GRO vs LRO on a single flow. Hardware aggregation
/// removes the per-frame GRO cycles (the paper measured up to ~55Gbps
/// with LRO, but notes it is often disabled because it can discard
/// header data).
pub fn lro_points() -> Vec<SweepPoint> {
    [("gro", false), ("lro", true)]
        .into_iter()
        .map(|(name, lro)| {
            SweepPoint::new(ScenarioKind::Single, format!("aggregation/{name}")).configure(
                move |c| {
                    c.stack.lro = lro;
                    c.stack.gro = !lro;
                },
            )
        })
        .collect()
}

/// Ablation points: the design knobs DESIGN.md calls out, one sweep each.
///
/// - MTU, with the ring scaled to a constant ~4.6MB byte footprint
///   (512 × 9000B), plus 1500B at the default 512-descriptor ring;
/// - NAPI budget on a 16-flow incast (smaller budgets flush GRO more
///   often: smaller aggregates, more IRQs);
/// - DCA slice capacity (the §4 "extensions to DCA" knob);
/// - interrupt moderation (`ethtool -C rx-usecs`);
/// - receive-buffer pinning near the DCA slice (the §4 window-tuning
///   proposal) vs Linux auto-tuning.
pub fn ablation_points() -> Vec<SweepPoint> {
    let single = |label: String| SweepPoint::new(ScenarioKind::Single, label);
    let mut out = Vec::new();
    for mtu in [1500u32, 3000, 6000, 9000] {
        out.push(single(format!("mtu/{mtu}")).configure(move |c| {
            c.stack.mtu = mtu;
            c.stack.rx_descriptors = 512 * 9000 / mtu;
        }));
    }
    out.push(single("mtu/1500-small-ring".into()).configure(|c| c.stack.mtu = 1500));
    for budget in [16u32, 64, 300, 1024] {
        out.push(
            SweepPoint::new(
                ScenarioKind::Incast { flows: 16 },
                format!("budget/{budget}"),
            )
            .configure(move |c| c.napi_budget = budget),
        );
    }
    for mb in [2u64, 3, 6, 12] {
        out.push(single(format!("dca/{mb}MB")).configure(move |c| c.dca_capacity = mb << 20));
    }
    for usecs in [0u64, 10, 50, 200] {
        out.push(
            single(format!("coalesce/{usecs}us"))
                .configure(move |c| c.irq_coalesce = hns_sim::Duration::from_micros(usecs)),
        );
    }
    for (name, policy) in [
        ("auto", RcvBufPolicy::Auto),
        ("1600KB", RcvBufPolicy::Fixed(1600 * 1024)),
        ("3200KB", RcvBufPolicy::Fixed(3200 * 1024)),
    ] {
        out.push(single(format!("rcvbuf/{name}")).configure(move |c| c.stack.rcvbuf = policy));
    }
    out
}

/// §4 "Future Directions" points, as runnable what-ifs:
///
/// - zero-copy: copies vs MSG_ZEROCOPY, TCP mmap receive and both on a
///   single flow, then sender-side zero-copy on an 8-way outcast, where
///   the sender core is the bottleneck (the paper's ~100Gbps/core);
/// - the colocated 1 long + 16 short mix that application-aware
///   scheduling would split (the isolated variant needs a hand-built
///   world; `tests/future_directions.rs` runs it);
/// - open-loop Poisson 4KB RPCs from 8 clients at 20–300k requests/s
///   aggregate: the latency hockey-stick;
/// - NUMA-aware placement of short flows: a 4KB RPC server NIC-local vs
///   NIC-remote.
pub fn future_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for (name, zc_tx, zc_rx) in [
        ("copies", false, false),
        ("tx", true, false),
        ("rx", false, true),
        ("both", true, true),
    ] {
        out.push(
            SweepPoint::new(ScenarioKind::Single, format!("zc/{name}")).configure(move |c| {
                c.stack.zerocopy_tx = zc_tx;
                c.stack.zerocopy_rx = zc_rx;
            }),
        );
    }
    out.push(
        SweepPoint::new(ScenarioKind::Outcast { flows: 8 }, "zc-tx/outcast8")
            .configure(|c| c.stack.zerocopy_tx = true),
    );
    out.push(SweepPoint::new(
        ScenarioKind::Mixed {
            shorts: 16,
            size: 4096,
        },
        "mixed/colocated",
    ));
    for krps in [20u32, 60, 120, 180, 240, 300] {
        out.push(SweepPoint::new(
            ScenarioKind::OpenLoop {
                clients: 8,
                size: 4096,
                rate_rps: f64::from(krps) * 1000.0 / 8.0,
            },
            format!("open-loop/{krps}krps"),
        ));
    }
    for (name, server) in [
        ("nic-local", Placement::NicLocalFirst),
        ("nic-remote", Placement::NicRemote),
    ] {
        out.push(SweepPoint::new(
            ScenarioKind::RpcIncast {
                clients: 16,
                size: 4096,
                server,
            },
            format!("numa/shorts-{name}"),
        ));
    }
    out
}

/// Fig. 10 as one figure: the request-size sweep, then the NUMA pair.
fn fig10_all_points() -> Vec<SweepPoint> {
    let mut out = fig10_points();
    out.extend(fig10c_points());
    out
}

/// One registered figure: the id `hostnet figures` selects it by, a
/// one-line description, and the sweep that regenerates it.
#[derive(Debug)]
pub struct Figure {
    /// Selector on the command line (`hostnet figures <id>`).
    pub id: &'static str,
    /// What the figure shows, printed above its tables.
    pub about: &'static str,
    /// The figure's sweep, in row order.
    pub points: fn() -> Vec<SweepPoint>,
}

/// Every figure, in the order `hostnet figures` runs them when no id is
/// given. Appending keeps earlier figures' output a byte prefix of the
/// full run.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "fig03",
        about: "Fig. 3a-d: single flow under incremental optimizations",
        points: fig03_points,
    },
    Figure {
        id: "fig03e",
        about: "Fig. 3e: cache miss rate and throughput vs NIC ring x TCP Rx buffer",
        points: fig03e_points,
    },
    Figure {
        id: "fig03f",
        about: "Fig. 3f: NAPI-to-copy latency vs TCP Rx buffer",
        points: fig03f_points,
    },
    Figure {
        id: "fig03g",
        about: "Fig. 3g (ours): per-stage latency from the lifecycle tracer",
        points: fig03g_points,
    },
    Figure {
        id: "fig04",
        about: "Fig. 4: single flow on a NIC-local vs NIC-remote NUMA node",
        points: fig04_points,
    },
    Figure {
        id: "fig05",
        about: "Fig. 5: one-to-one, flows x optimization level",
        points: fig05_points,
    },
    Figure {
        id: "fig06",
        about: "Fig. 6: incast, flows x optimization level",
        points: fig06_points,
    },
    Figure {
        id: "fig07",
        about: "Fig. 7: outcast, flows x optimization level",
        points: fig07_points,
    },
    Figure {
        id: "fig08",
        about: "Fig. 8: all-to-all, cores per side x optimization level",
        points: fig08_points,
    },
    Figure {
        id: "fig09",
        about: "Fig. 9: single flow under uniform in-network loss",
        points: fig09_points,
    },
    Figure {
        id: "fig09b",
        about: "Fig. 9 extension: bursty loss and link flaps",
        points: fig09b_points,
    },
    Figure {
        id: "fig05c",
        about: "Fig. 5 extension: connection-rate scaling and short RPCs",
        points: fig05_conn_rate_points,
    },
    Figure {
        id: "fig10",
        about: "Fig. 10: 16:1 RPC incast by size, and 4KB NIC-local vs NIC-remote",
        points: fig10_all_points,
    },
    Figure {
        id: "fig11",
        about: "Fig. 11: one long flow + n short flows on one core pair",
        points: fig11_points,
    },
    Figure {
        id: "fig12",
        about: "Fig. 12: DCA disabled and IOMMU enabled vs the default",
        points: fig12_points,
    },
    Figure {
        id: "fig13",
        about: "Fig. 13: CUBIC vs BBR vs DCTCP",
        points: fig13_points,
    },
    Figure {
        id: "figcap",
        about: "overload: admission policy x concurrent clients at fixed cores",
        points: fig_capacity_points,
    },
    Figure {
        id: "figincast",
        about: "fabric: ToR fan-in, ECN off vs on at every fan-in degree",
        points: fig_incast_points,
    },
    Figure {
        id: "figback",
        about: "datapaths: in-kernel vs TCP offload vs kernel bypass",
        points: fig_backend_points,
    },
    Figure {
        id: "table2",
        about: "Table 2: RSS vs RPS vs RFS vs aRFS receive steering",
        points: table2_points,
    },
    Figure {
        id: "lro",
        about: "footnote 3: GRO vs LRO",
        points: lro_points,
    },
    Figure {
        id: "ablations",
        about: "ablations: MTU, NAPI budget, DCA slice, IRQ moderation, rcvbuf",
        points: ablation_points,
    },
    Figure {
        id: "future",
        about: "§4 future directions: zero-copy, scheduling, open loop, NUMA",
        points: future_points,
    },
];

/// Look a figure up by id.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

#[cfg(test)]
mod tests {
    // Figures are exercised end-to-end by the integration tests and
    // `hostnet figures`; here we only check cheap structural properties.
    use super::*;

    #[test]
    fn flow_sweep_matches_paper() {
        assert_eq!(FLOW_SWEEP, [1, 8, 16, 24]);
    }

    #[test]
    fn fig04_runs_both_placements() {
        let rows = run_sweep_with(1, &fig04_points());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "nic-local");
        assert_eq!(rows[1].label, "nic-remote");
    }

    #[test]
    fn point_grids_have_expected_shapes() {
        assert_eq!(fig03_points().len(), OptLevel::ALL.len());
        assert_eq!(fig03e_points().len(), 24);
        assert_eq!(fig03e_points()[0].label, "ring128/default");
        assert_eq!(fig03e_points()[23].label, "ring4096/12800KB");
        assert_eq!(fig03f_points().len(), 8);
        assert_eq!(fig03g_points().len(), FLOW_SWEEP.len());
        for points in [
            fig05_points(),
            fig06_points(),
            fig07_points(),
            fig08_points(),
        ] {
            assert_eq!(points.len(), FLOW_SWEEP.len() * OptLevel::ALL.len());
        }
        assert_eq!(fig09_points().len(), 4);
        assert_eq!(fig09b_points().len(), 6);
        assert_eq!(fig10_points().len(), 4);
        assert_eq!(fig10c_points().len(), 2);
        assert_eq!(fig11_points().len(), 4);
        assert_eq!(fig12_points().len(), 3);
        assert_eq!(fig13_points().len(), 3);
        let cap = fig_capacity_points();
        assert_eq!(cap.len(), CAPACITY_POLICIES.len() * CAPACITY_CLIENTS.len());
        assert_eq!(cap[0].label, "capacity/drop/125c");
        assert_eq!(cap[11].label, "capacity/shed/1000c");
        let inc = fig_incast_points();
        assert_eq!(inc.len(), 2 * INCAST_SENDERS.len());
        assert_eq!(inc[0].label, "incast/ecn-off/1s");
        assert_eq!(inc[9].label, "incast/ecn-on/16s");
        let back = fig_backend_points();
        assert_eq!(
            back.len(),
            DatapathKind::ALL.len() * BACKEND_SCENARIOS.len()
        );
        assert_eq!(back[0].label, "backend/inkernel/single");
        assert_eq!(back[5].label, "backend/bypass/o2o-8");
        assert_eq!(table2_points().len(), 4);
        assert_eq!(table2_points()[3].label, "steering/arfs");
        assert_eq!(lro_points().len(), 2);
        assert_eq!(ablation_points().len(), 20);
        assert_eq!(future_points().len(), 14);

        // Registry: ids unique and in run order (appending keeps the
        // no-id output a prefix of earlier versions'), every figure
        // non-empty, labels unique within a figure.
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            [
                "fig03",
                "fig03e",
                "fig03f",
                "fig03g",
                "fig04",
                "fig05",
                "fig06",
                "fig07",
                "fig08",
                "fig09",
                "fig09b",
                "fig05c",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "figcap",
                "figincast",
                "figback",
                "table2",
                "lro",
                "ablations",
                "future",
            ]
        );
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(!ids[..i].contains(&f.id), "duplicate id {}", f.id);
            assert_eq!(figure(f.id).map(|g| g.about), Some(f.about));
            let points = (f.points)();
            assert!(!points.is_empty(), "{} has no points", f.id);
            for (j, p) in points.iter().enumerate() {
                assert!(
                    points[..j].iter().all(|q| q.label != p.label),
                    "{}: duplicate label {}",
                    f.id,
                    p.label
                );
            }
        }
        assert!(figure("bogus").is_none());
        assert_eq!((figure("fig10").unwrap().points)().len(), 6);
    }

    #[test]
    fn backend_points_set_the_datapath() {
        for (p, kind) in fig_backend_points()
            .iter()
            .zip(DatapathKind::ALL.iter().flat_map(|k| [k; 2]))
        {
            assert_eq!(p.build().cfg.datapath, *kind, "{}", p.label);
        }
    }

    #[test]
    fn incast_points_size_the_fabric_to_the_fan_in() {
        for (p, senders) in fig_incast_points()
            .iter()
            .zip(INCAST_SENDERS.iter().cycle())
        {
            let f = p.build().cfg.fabric.expect("incast points set a fabric");
            assert_eq!(f.hosts, senders + 1, "{}", p.label);
            assert_eq!(f.buffer_bytes, INCAST_BUFFER_BYTES);
            assert_eq!(f.uplinks, 4);
        }
        let ecn: Vec<_> = fig_incast_points()
            .iter()
            .map(|p| p.build().cfg.fabric.unwrap().ecn_threshold_bytes)
            .collect();
        assert!(ecn[..INCAST_SENDERS.len()].iter().all(|e| e.is_none()));
        assert!(ecn[INCAST_SENDERS.len()..]
            .iter()
            .all(|e| *e == Some(INCAST_ECN_THRESHOLD)));
    }

    #[test]
    fn sweep_point_build_applies_level_and_delta() {
        let p = SweepPoint::new(ScenarioKind::Single, "x")
            .at_level(OptLevel::TsoGro)
            .configure(|c| c.stack.rx_descriptors = 77);
        let e = p.build();
        assert_eq!(e.cfg.stack.rx_descriptors, 77);
        assert_eq!(e.label.as_deref(), Some("x"));
    }
}
