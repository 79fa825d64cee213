//! The benchmark's three workloads, run through the public library API:
//! `hns_workload` builders → `World::new` → `Scenario::install` →
//! `World::try_run` → `hns_metrics` rendering. Every report is checked and
//! folded into a digest of the simulated results.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use hns_conn::AdmissionPolicy;
use hns_core::figures::{INCAST_BUFFER_BYTES, INCAST_ECN_THRESHOLD};
use hns_metrics::Report;
use hns_monitor::MonitorConfig;
use hns_sim::Duration;
use hns_stack::{FabricConfig, OptLevel, SimConfig, StackConfig, World};
use hns_trace::TraceConfig;
use hns_workload::{Placement, Scenario};

use crate::alloc::{self, PeakWindow, Scope};
use crate::reference;
use crate::spans::Spans;

/// A named workload: a fixed list of experiments run back to back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Window-limited long flows on the legacy two-host link.
    Bulk,
    /// Open-loop short-RPC connection churn with the monitor on.
    Churn,
    /// 8→1 incast through the shared-buffer ToR switch, audited.
    Fabric,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk" => Some(Workload::Bulk),
            "churn" => Some(Workload::Churn),
            "fabric" => Some(Workload::Fabric),
            _ => None,
        }
    }

    pub fn experiments(self) -> Vec<Experiment> {
        match self {
            Workload::Bulk => vec![
                Experiment::new(
                    "bulk/one-to-one-8/arfs",
                    Builder::OneToOne(8),
                    SimConfig::default(),
                )
                .paper(
                    25.0,
                    "EXPERIMENTS.md, Figure 5 table, row `8`: paper thpt/core ≈ 25",
                ),
                Experiment::new(
                    "bulk/single/no-opt",
                    Builder::Single,
                    at_level(OptLevel::NoOpt),
                )
                .paper(
                    8.0,
                    "EXPERIMENTS.md, Figure 3(a) table, row `No opt.`: paper Gbps/core ≈ 8",
                ),
            ],
            Workload::Churn => vec![Experiment::new(
                "churn/capacity-500/queue",
                Builder::ChurnCapacity(500),
                SimConfig {
                    monitor: Some(MonitorConfig::default()),
                    trace: sampled_trace(),
                    ..SimConfig::default()
                },
            )
            .measure_ms(100)],
            Workload::Fabric => [
                ("fabric/incast-8/ecn-off", None),
                ("fabric/incast-8/ecn-on", Some(INCAST_ECN_THRESHOLD)),
            ]
            .into_iter()
            .map(|(label, ecn)| {
                let mut f = FabricConfig::neutral(9);
                f.uplinks = 4;
                f.buffer_bytes = INCAST_BUFFER_BYTES;
                f.ecn_threshold_bytes = ecn;
                let cfg = SimConfig {
                    fabric: Some(f),
                    audit: true,
                    ..SimConfig::default()
                };
                Experiment::new(label, Builder::FabricIncast(8), cfg)
            })
            .collect(),
        }
    }
}

/// Input draws of a workload seed: passes cycle through them, each with
/// the simulation seed of [`draw_seed`], so that seed-dependent costs (drop
/// storms, buffer growth) average out within one run.
pub const DRAWS: u64 = 16;

/// Simulation seed of input draw `draw` of workload seed `seed`; draw 0
/// runs at `seed` itself.
fn draw_seed(seed: u64, draw: u64) -> u64 {
    seed.wrapping_add(draw.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `SimConfig` at one of the paper's optimization levels, keeping the
/// receive-buffer, ring and congestion-control defaults (as the figures do).
fn at_level(level: OptLevel) -> SimConfig {
    let mut cfg = SimConfig::default();
    let keep = cfg.stack;
    cfg.stack = StackConfig::at_level(level);
    cfg.stack.rcvbuf = keep.rcvbuf;
    cfg.stack.rx_descriptors = keep.rx_descriptors;
    cfg.stack.cc = keep.cc;
    cfg
}

/// The sampled lifecycle tracer the monitor's sketches ride on (every 8th
/// skb, as `hostnet monitor` samples by default).
fn sampled_trace() -> TraceConfig {
    TraceConfig {
        enabled: true,
        sample_every: 8,
        ..TraceConfig::DISABLED
    }
}

/// Which `hns_workload` builder makes an experiment's inputs.
#[derive(Clone, Copy)]
enum Builder {
    OneToOne(u16),
    Single,
    ChurnCapacity(u32),
    FabricIncast(u16),
}

impl Builder {
    fn build(self, cfg: &mut SimConfig) -> Scenario {
        match self {
            Builder::OneToOne(n) => hns_workload::one_to_one(&cfg.topology, n),
            Builder::Single => hns_workload::single_flow(&cfg.topology, Placement::NicLocalFirst),
            Builder::ChurnCapacity(clients) => {
                cfg.churn = Some(hns_workload::churn_capacity(
                    clients,
                    AdmissionPolicy::Queue,
                ));
                Scenario::default()
            }
            Builder::FabricIncast(n) => hns_workload::fabric_incast(&cfg.topology, n),
        }
    }
}

/// A paper value an experiment's simulated Gbps/core is compared with.
#[derive(Clone)]
pub struct PaperRef {
    pub gbps_per_core: f64,
    /// The EXPERIMENTS.md table row the value is quoted from.
    pub source: &'static str,
}

/// One simulated experiment of a workload.
#[derive(Clone)]
pub struct Experiment {
    pub label: &'static str,
    builder: Builder,
    cfg: SimConfig,
    warmup: Duration,
    measure: Duration,
    pub paper: Option<PaperRef>,
}

impl Experiment {
    fn new(label: &'static str, builder: Builder, cfg: SimConfig) -> Self {
        Experiment {
            label,
            builder,
            cfg,
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(30),
            paper: None,
        }
    }

    fn paper(mut self, gbps_per_core: f64, source: &'static str) -> Self {
        self.paper = Some(PaperRef {
            gbps_per_core,
            source,
        });
        self
    }

    fn measure_ms(mut self, ms: u64) -> Self {
        self.measure = Duration::from_millis(ms);
        self
    }

    /// Simulated seconds one run covers (warmup + measurement window).
    pub fn sim_secs(&self) -> f64 {
        (self.warmup + self.measure).as_secs_f64()
    }

    /// Maximum segment size of the experiment's stack.
    pub fn mss(&self) -> u32 {
        self.cfg.stack.mss()
    }

    /// True when the experiment runs under the invariant auditor.
    pub fn audited(&self) -> bool {
        self.cfg.audit
    }

    /// True when the experiment runs with the monitor on.
    pub fn monitored(&self) -> bool {
        self.cfg.monitor.is_some()
    }

    /// True when the experiment runs on two hosts over the legacy link.
    pub fn on_link(&self) -> bool {
        self.cfg.fabric.is_none()
    }

    fn config(&self, seed: u64, variant: Variant) -> SimConfig {
        let mut cfg = SimConfig { seed, ..self.cfg };
        match variant {
            Variant::Base => {}
            Variant::NeutralFabric => {
                if cfg.fabric.is_none() {
                    cfg.fabric = Some(FabricConfig::neutral(2));
                }
            }
            Variant::AuditToggled => cfg.audit = !cfg.audit,
            Variant::MonitorToggled => {
                if cfg.monitor.is_some() {
                    cfg.monitor = None;
                    cfg.trace = TraceConfig::DISABLED;
                } else {
                    cfg.monitor = Some(MonitorConfig::default());
                    cfg.trace = sampled_trace();
                }
            }
        }
        cfg
    }
}

/// A configuration change applied to every experiment of a workload, for
/// the differential (variant minus base) cost measurements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    Base,
    /// Two-host experiments on `FabricConfig::neutral(2)` instead of the
    /// legacy link (report-identical by design).
    NeutralFabric,
    /// Invariant auditor flipped on (off where the base runs audited).
    AuditToggled,
    /// Monitor plus its sampled tracer flipped on (off where the base has
    /// them).
    MonitorToggled,
}

impl Variant {
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "base",
            Variant::NeutralFabric => "neutral-fabric",
            Variant::AuditToggled => "audit-toggled",
            Variant::MonitorToggled => "monitor-toggled",
        }
    }
}

/// What one experiment produced and cost.
struct Outcome {
    report: Option<Report>,
    /// Why the experiment failed its checks, if it did.
    failure: Option<String>,
    /// Canonical JSON of the report (empty on failure).
    json: String,
    run_s: f64,
    events: u64,
    run_allocs: u64,
    setup_peak: u64,
    run_peak: u64,
    /// Monitor snapshots delivered to the emit callback.
    snapshots: u64,
}

/// A world built and installed for one experiment, ready to run.
struct SetUp {
    world: World,
    cfg: SimConfig,
    /// Monitor snapshots the emit callback has seen.
    snapshots: Rc<Cell<u64>>,
}

/// Set-up: the workload builder, `World::new` and `Scenario::install`.
fn set_up(exp: &Experiment, seed: u64, variant: Variant, spans: &Spans) -> SetUp {
    let mut cfg = exp.config(seed, variant);
    let scenario = spans.time("workload.build", || exp.builder.build(&mut cfg));
    let mut world = spans.time("stack.world_new", || World::new(cfg));
    world.set_label(exp.label);
    let snapshots = Rc::new(Cell::new(0u64));
    if cfg.monitor.is_some() {
        let count = Rc::clone(&snapshots);
        let spans = spans.clone();
        world.set_monitor_emit(Box::new(move |s| {
            let line = spans.time("monitor.emit", || s.to_jsonl());
            black_box(line);
            count.set(count.get() + 1);
        }));
    }
    spans.time("stack.install", || scenario.install(&mut world));
    SetUp {
        world,
        cfg,
        snapshots,
    }
}

/// Set-ups of the whole workload timed per pass; the median is kept.
const SETUP_SAMPLES: usize = 15;

/// Median host time of [`SETUP_SAMPLES`] set-ups of every experiment in
/// `exps` (the worlds are dropped untimed).
fn setup_time(exps: &[Experiment], seed: u64, variant: Variant) -> f64 {
    let mut samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            exps.iter()
                .map(|exp| {
                    let t = Instant::now();
                    let s = set_up(exp, seed, variant, &Spans::default());
                    let dt = t.elapsed().as_secs_f64();
                    drop(s);
                    dt
                })
                .sum()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SETUP_SAMPLES / 2]
}

fn run_experiment(exp: &Experiment, seed: u64, variant: Variant, spans: &Spans) -> Outcome {
    let setup_window = PeakWindow::open(Scope::Phase);
    let SetUp {
        mut world,
        cfg,
        snapshots,
    } = set_up(exp, seed, variant, spans);
    let setup_peak = setup_window.peak_bytes();

    let run_window = PeakWindow::open(Scope::Phase);
    let allocs0 = alloc::allocs();
    let t1 = Instant::now();
    let result = spans.time("stack.run", || world.try_run(exp.warmup, exp.measure));
    let run_s = t1.elapsed().as_secs_f64();
    let run_allocs = alloc::allocs() - allocs0;
    let run_peak = run_window.peak_bytes();
    let events = world.events_processed();
    drop(world);

    let mut out = Outcome {
        report: None,
        failure: None,
        json: String::new(),
        run_s,
        events,
        run_allocs,
        setup_peak,
        run_peak,
        snapshots: snapshots.get(),
    };
    match result {
        Ok(report) => {
            out.json = spans.time("metrics.render", || render(&report));
            out.failure = check(&cfg, &report, out.snapshots).err();
            out.report = Some(report);
        }
        Err(e) => out.failure = Some(format!("run error: {e}")),
    }
    out
}

/// Render one report the ways the CLI does: canonical JSON (returned, for
/// the digest) plus every table that applies to it.
fn render(report: &Report) -> String {
    let tables = [
        hns_metrics::format_stage_table(report),
        hns_metrics::format_conn_table(report),
        hns_metrics::format_capacity_table(report),
        hns_metrics::format_monitor_table(report),
    ];
    black_box(tables);
    report.to_json()
}

/// The report checks every experiment must pass.
fn check(cfg: &SimConfig, r: &Report, snapshots: u64) -> Result<(), String> {
    if r.delivered_bytes == 0 {
        return Err("no bytes delivered".into());
    }
    if cfg.churn.is_some() {
        let c = r.conn.ok_or("churn run without a conn summary")?;
        // Both counters restart at the measurement window, so handshakes
        // begun in the warmup and completed in the window count as
        // established but not opened. Those were live in the flow table at
        // the boundary, so they number at most its high-water mark.
        if c.established > c.opened + c.established_high_water {
            return Err(format!(
                "established {} > opened {} + live high-water {}",
                c.established, c.opened, c.established_high_water
            ));
        }
        if c.failed != 0 {
            return Err(format!("{} connections failed", c.failed));
        }
        if c.rpcs == 0 {
            return Err("no RPCs completed".into());
        }
    }
    if let Some(m) = &r.monitor {
        if m.snapshots != snapshots {
            return Err(format!(
                "monitor summary counts {} snapshots, emit callback saw {snapshots}",
                m.snapshots
            ));
        }
    }
    if cfg.fabric.is_some() {
        // An audited run that returned `Ok` passed every ledger; the drop
        // classes must still add up to the total.
        let by_class: u64 = r.drops.buckets().iter().map(|(_, n)| n).sum();
        if by_class != r.drops.total() {
            return Err(format!(
                "drop classes sum to {by_class}, total is {}",
                r.drops.total()
            ));
        }
    }
    Ok(())
}

/// One pass: every experiment of a workload run back to back on one input
/// draw, then their reports rendered together.
pub struct Pass {
    pub draw: u64,
    /// Reference-loop time: the mean of one pass of the reference just
    /// before and one just after.
    pub ref_s: f64,
    pub wall_s: f64,
    /// Median set-up time of the pass's experiments, sampled just before
    /// the pass (see [`setup_time`]).
    pub setup_s: f64,
    pub run_s: f64,
    pub sim_s: f64,
    /// Peak heap above the level before the pass started.
    pub peak_heap: u64,
    pub setup_peak: u64,
    pub run_peak: u64,
    pub events: u64,
    pub run_allocs: u64,
    pub snapshots: u64,
    /// FNV-1a of each experiment's canonical report JSON, in order.
    pub digests: Vec<u64>,
    /// Each experiment's failed check, if any, in order.
    pub failures: Vec<Option<String>>,
    pub reports: Vec<Report>,
}

impl Pass {
    /// Factor that scales this pass's host times to the nominal host speed
    /// of [`reference::NOMINAL_S`].
    pub fn scale(&self) -> f64 {
        reference::NOMINAL_S / self.ref_s
    }
}

/// Run every experiment of `exps` once on input draw `draw` of `seed`.
pub fn run_pass(
    exps: &[Experiment],
    seed: u64,
    draw: u64,
    variant: Variant,
    spans: &Spans,
) -> Pass {
    let seed = draw_seed(seed, draw);
    let ref_s = reference::time();
    let setup_s = setup_time(exps, seed, variant);
    let window = PeakWindow::open(Scope::Pass);
    let t0 = Instant::now();
    let mut pass = Pass {
        draw,
        ref_s,
        wall_s: 0.0,
        setup_s,
        run_s: 0.0,
        sim_s: 0.0,
        peak_heap: 0,
        setup_peak: 0,
        run_peak: 0,
        events: 0,
        run_allocs: 0,
        snapshots: 0,
        digests: Vec::new(),
        failures: Vec::new(),
        reports: Vec::new(),
    };
    spans.time_run("bench.pass", || {
        for exp in exps {
            let o = spans.time_run("bench.experiment", || {
                run_experiment(exp, seed, variant, spans)
            });
            pass.run_s += o.run_s;
            pass.sim_s += exp.sim_secs();
            pass.setup_peak = pass.setup_peak.max(o.setup_peak);
            pass.run_peak = pass.run_peak.max(o.run_peak);
            pass.events += o.events;
            pass.run_allocs += o.run_allocs;
            pass.snapshots += o.snapshots;
            pass.digests.push(fnv1a(FNV_OFFSET, o.json.as_bytes()));
            pass.failures.push(o.failure);
            pass.reports.extend(o.report);
        }
        spans.time("metrics.render", || {
            black_box(hns_metrics::reports_to_csv(&pass.reports));
            black_box(hns_metrics::format_series_table(&pass.reports));
        });
    });
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.peak_heap = window.peak_bytes();
    pass.ref_s = (pass.ref_s + reference::time()) / 2.0;
    pass
}

/// The workload's `sim_digest`: FNV-1a over report digests, in order.
pub fn combine<'a>(digests: impl IntoIterator<Item = &'a u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
