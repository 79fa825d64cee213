//! Host-time benchmark of the hostnet simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk|churn|fabric --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs passes over the workload's experiments back to back, on one
//! thread, for `--seconds` of host time, cycling through [`DRAWS`] input
//! draws of the seed. Every report is checked, and printed lines are
//! followed by one JSON line. With `--trace 0` the JSON carries the
//! end-to-end metrics (medians over the passes); with `--trace 1` it
//! carries the per-layer metrics: self times of spans recorded around the
//! calls into each crate, counts read from `World` and the reports, three
//! differential (feature on minus off) costs, and isolated layer kernels
//! sized from the workload's own counts. Host times are scaled to a nominal
//! host speed (see `reference.rs`); `predictions.json` says which
//! end-to-end metric each per-layer metric should move, and where not.

mod alloc;
mod kernels;
mod reference;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use hns_metrics::json::Value;
use hns_metrics::Report;
use spans::Spans;
use workloads::{run_pass, Experiment, Pass, Variant, Workload, DRAWS};

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload bulk|churn|fabric --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let exps = args.workload.experiments();
    println!(
        "perfbench: workload {} seed {} for {} s, trace {}, {DRAWS} draws, host_cpus {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let verdict = if args.trace {
        traced(&exps, &args)
    } else {
        untraced(&exps, &args)
    };
    println!("{}", verdict.to_json());
    ExitCode::SUCCESS
}

/// Passes per cycle through the draws; runs end on whole cycles.
const CYCLE: usize = DRAWS as usize;
/// Fewest pairs per differential of the per-layer run.
const MIN_PAIRS: usize = 3;
/// Shares of `--seconds` the per-layer run spends on traced passes and on
/// each of its three differentials.
const TRACED_SHARE: f64 = 0.4;
const DIFFERENTIAL_SHARE: f64 = 0.15;

/// Every pass run, with the checks that span them all.
struct Ledger {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Report digests of the first pass of each (variant, draw); every
    /// later pass of that variant and draw must match.
    digests: BTreeMap<(&'static str, u64), Vec<u64>>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            digests: BTreeMap::new(),
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(note);
        }
    }

    fn record(&mut self, variant: &'static str, exps: &[Experiment], pass: &Pass) {
        self.attempted += exps.len() as u64;
        let reference = self
            .digests
            .entry((variant, pass.draw))
            .or_insert_with(|| pass.digests.clone())
            .clone();
        for (i, exp) in exps.iter().enumerate() {
            let failure = pass.failures[i].clone().or_else(|| {
                (pass.digests[i] != reference[i])
                    .then(|| format!("sim_digest differs between passes ({variant})"))
            });
            if let Some(f) = failure {
                self.fail(format!("{} (draw {}): {f}", exp.label, pass.draw));
            }
        }
    }

    /// Count every experiment whose `variant` report differs from its
    /// `base` report, on any draw both ran, as failed.
    fn require_same(&mut self, variant: &'static str, base: &'static str, exps: &[Experiment]) {
        let mut differing = Vec::new();
        for draw in 0..DRAWS {
            if let (Some(v), Some(b)) = (
                self.digests.get(&(variant, draw)),
                self.digests.get(&(base, draw)),
            ) {
                for ((exp, v), b) in exps.iter().zip(v).zip(b) {
                    if v != b {
                        differing.push(format!("{} (draw {draw})", exp.label));
                    }
                }
            }
        }
        for name in differing {
            self.fail(format!(
                "{name}: {variant} report differs from the {base} report"
            ));
        }
    }

    /// The workload's `sim_digest`: every base report of every draw.
    fn sim_digest(&self) -> u64 {
        workloads::combine(
            (0..DRAWS).flat_map(|d| self.digests.get(&("base", d)).into_iter().flatten()),
        )
    }
}

/// Run passes of `variant`, cycling through the draws, for `budget`
/// seconds of host time and whole cycles (at least one), recording each
/// in `ledger`.
fn repeat(
    exps: &[Experiment],
    seed: u64,
    budget: f64,
    variant: Variant,
    ledger: &mut Ledger,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < CYCLE
        || passes.len() % CYCLE != 0
        || start.elapsed().as_secs_f64() < budget
    {
        let draw = passes.len() as u64 % DRAWS;
        let pass = run_pass(exps, seed, draw, variant, &Spans::default());
        ledger.record(variant.label(), exps, &pass);
        passes.push(pass);
    }
    passes
}

/// One untimed pass first, so caches fill and lazy set-up finishes.
fn warm_up(exps: &[Experiment], seed: u64, ledger: &mut Ledger) {
    let pass = run_pass(exps, seed, 0, Variant::Base, &Spans::default());
    ledger.record("base", exps, &pass);
}

/// First quartile, median and third quartile of `xs` (non-empty), by
/// linear interpolation between order statistics.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

fn median(xs: Vec<f64>) -> f64 {
    quartiles(xs)[1]
}

fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(per_pass(passes, f))
}

/// The benchmark's final line.
struct Verdict {
    ledger: Ledger,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Verdict {
    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let correct = finite && self.ledger.failed == 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ledger.attempted,
            self.ledger.failed,
            metrics.join(", ")
        )
    }
}

/// The digest `baseline.json` records for this workload and seed, if any.
fn recorded_digest(workload: &str, seed: u64) -> Option<String> {
    let v = Value::parse(include_str!("../baseline.json")).ok()?;
    let d = v.get("sim_digest").ok()?.get(workload).ok()?;
    Some(d.get(&seed.to_string()).ok()?.as_str().ok()?.to_string())
}

fn print_checks(args: &Args, ledger: &Ledger) {
    let digest = format!("{:016x}", ledger.sim_digest());
    let recorded = match recorded_digest(&args.name, args.seed) {
        Some(r) if r == digest => "matches baseline.json".to_string(),
        Some(r) => format!("DIFFERS from baseline.json: {r}"),
        None => "baseline.json has no entry for this seed".to_string(),
    };
    println!("  sim_digest    {digest} ({recorded})");
    println!(
        "  fail_frac     {} ratio ({} of {} experiment runs failed)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
    for n in &ledger.notes {
        println!("  FAILED        {n}");
    }
}

fn paper_err_pct(paper: f64, simulated: f64) -> f64 {
    (simulated - paper).abs() / paper * 100.0
}

/// Print each experiment's simulated result, averaged over one cycle of
/// draws, with its error against the paper where the paper has a value.
fn print_results(exps: &[Experiment], cycle: &[Pass]) {
    let mut errs = Vec::new();
    for exp in exps {
        let runs: Vec<&Report> = cycle
            .iter()
            .flat_map(|p| &p.reports)
            .filter(|r| r.label == exp.label)
            .collect();
        let mean =
            |f: fn(&Report) -> f64| runs.iter().map(|r| f(r)).sum::<f64>() / runs.len() as f64;
        let per_core = mean(|r| r.thpt_per_core_gbps);
        let paper = exp.paper.as_ref().map_or(String::new(), |p| {
            errs.extend(
                runs.iter()
                    .map(|r| paper_err_pct(p.gbps_per_core, r.thpt_per_core_gbps)),
            );
            format!(
                "; paper_err_pct {:.3} % against {} ({})",
                paper_err_pct(p.gbps_per_core, per_core),
                p.gbps_per_core,
                p.source
            )
        });
        println!(
            "  {:<26} {:>7.2} Gbps total, {:>6.2} Gbps/core over {} draws{paper}",
            exp.label,
            mean(|r| r.total_gbps),
            per_core,
            runs.len()
        );
    }
    if !errs.is_empty() {
        println!(
            "  paper_err_pct {:.3} % (mean abs. error of {} experiment runs)",
            errs.iter().sum::<f64>() / errs.len() as f64,
            errs.len()
        );
    }
}

/// End-to-end run: tracing off, medians over the timed passes, host times
/// scaled to the nominal host speed.
fn untraced(exps: &[Experiment], args: &Args) -> Verdict {
    let mut ledger = Ledger::new();
    warm_up(exps, args.seed, &mut ledger);
    let passes = repeat(exps, args.seed, args.seconds, Variant::Base, &mut ledger);
    print_results(exps, &passes[..CYCLE]);

    let series: [(&'static str, &'static str, Vec<f64>); 4] = [
        ("wall_s", "s", per_pass(&passes, |p| p.wall_s * p.scale())),
        ("setup_s", "s", per_pass(&passes, |p| p.setup_s * p.scale())),
        (
            "sim_ms_per_s",
            "sim-ms/s",
            per_pass(&passes, |p| p.sim_s * 1e3 / (p.run_s * p.scale())),
        ),
        (
            "peak_heap_mb",
            "MB",
            per_pass(&passes, |p| p.peak_heap as f64 / 1e6),
        ),
    ];
    println!(
        "  end-to-end metrics over {} passes (unscaled wall median {:.6} s, reference {:.6} s):",
        passes.len(),
        median_of(&passes, |p| p.wall_s),
        median_of(&passes, |p| p.ref_s)
    );
    let mut metrics = Vec::new();
    for (name, unit, xs) in series {
        let [q1, med, q3] = quartiles(xs);
        println!("  {name:<13} {med:.6} {unit} (median; quartiles {q1:.6} .. {q3:.6})");
        metrics.push((name, med, unit));
    }
    print_checks(args, &ledger);
    Verdict { ledger, metrics }
}

/// Per-layer run: spans, counts, differentials and kernels, host times
/// scaled like the end-to-end metrics.
fn traced(exps: &[Experiment], args: &Args) -> Verdict {
    let mut ledger = Ledger::new();
    warm_up(exps, args.seed, &mut ledger);

    // Traced and untraced passes alternate, so the difference of their
    // medians is the tracing overhead.
    let spans = Spans::recording();
    let (mut traced, mut plain, mut self_times) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < CYCLE
        || traced.len() % CYCLE != 0
        || start.elapsed().as_secs_f64() < TRACED_SHARE * args.seconds
    {
        let draw = traced.len() as u64 % DRAWS;
        let cursor = spans.len();
        let pass = run_pass(exps, args.seed, draw, Variant::Base, &spans);
        ledger.record("base", exps, &pass);
        let mut times = spans.self_times(cursor);
        times.values_mut().for_each(|t| *t *= pass.scale());
        self_times.push(times);
        traced.push(pass);
        let pass = run_pass(exps, args.seed, draw, Variant::Base, &Spans::default());
        ledger.record("base", exps, &pass);
        plain.push(pass);
    }
    let self_s = |name: &str| {
        median(
            self_times
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect(),
        )
    };

    // Differentials: wall time with a feature on minus with it off, over
    // the experiments the variant applies to, as the median over adjacent
    // pairs on the same draw (so host drift hits both sides alike).
    let link_exps: Vec<Experiment> = exps.iter().filter(|e| e.on_link()).cloned().collect();
    let budget = DIFFERENTIAL_SHARE * args.seconds;
    let mut differential = |subset: &[Experiment], variant: Variant, base_has_it: bool| -> f64 {
        if subset.is_empty() {
            return 0.0;
        }
        let base_label = if variant == Variant::NeutralFabric {
            "base/link-only"
        } else {
            "base"
        };
        let mut diffs = Vec::new();
        let start = Instant::now();
        while diffs.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < budget {
            let draw = diffs.len() as u64 % DRAWS;
            let b = run_pass(subset, args.seed, draw, Variant::Base, &Spans::default());
            ledger.record(base_label, subset, &b);
            let v = run_pass(subset, args.seed, draw, variant, &Spans::default());
            ledger.record(variant.label(), subset, &v);
            let d = v.wall_s * v.scale() - b.wall_s * b.scale();
            diffs.push(if base_has_it { -d } else { d });
        }
        median(diffs)
    };
    let fabric_cost = differential(&link_exps, Variant::NeutralFabric, false);
    let audit_cost = differential(
        exps,
        Variant::AuditToggled,
        exps.iter().all(|e| e.audited()),
    );
    let monitor_cost = differential(
        exps,
        Variant::MonitorToggled,
        exps.iter().all(|e| e.monitored()),
    );
    // The neutral two-host fabric is report-identical to the legacy link,
    // and the auditor only checks: both variants must reproduce the base.
    ledger.require_same("neutral-fabric", "base/link-only", &link_exps);
    ledger.require_same("audit-toggled", "base", exps);

    let c = Counts::of(exps, &traced[..CYCLE]);
    let sizing = kernels::Sizing {
        seed: args.seed,
        events: c.events as u64,
        frames: c.frames as u64,
        mss: c.mss,
        loss: (c.retransmissions / c.frames.max(1.0)).min(0.5),
        conns: c.opened as u64,
        live_conns: c.live_high_water as u64,
        time_wait: c.time_wait_high_water as u64,
    };
    let kernel_start = Instant::now();
    let scaled = |kernel: fn(&kernels::Sizing) -> f64| {
        let before = reference::time();
        let ns = kernel(&sizing);
        ns * reference::NOMINAL_S / ((before + reference::time()) / 2.0)
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("sim.queue_ns_per_op", scaled(kernels::queue)),
        ("stack.fabric_ns_per_frame", scaled(kernels::fabric)),
        ("nic.link_ns_per_frame", scaled(kernels::link)),
        ("proto.reassembly_ns_per_seg", scaled(kernels::reassembly)),
        ("proto.scoreboard_ns_per_merge", scaled(kernels::scoreboard)),
        ("conn.table_ns_per_op", scaled(kernels::flow_table)),
        ("conn.timewait_ns_per_op", scaled(kernels::time_wait)),
        ("mem.pagepool_ns_per_op", scaled(kernels::page_pool)),
        ("mem.dca_ns_per_probe", scaled(kernels::dca)),
        ("monitor.sketch_ns_per_record", scaled(kernels::sketch)),
    ]);
    let kernel_s = kernel_start.elapsed().as_secs_f64();

    let traced_wall = median_of(&traced, |p| p.wall_s * p.scale());
    let events = c.events;
    values.extend([
        ("sim.events", events),
        ("sim.events_per_sim_ms", events / (c.sim_s * 1e3)),
        ("stack.run_s", self_s("stack.run")),
        (
            "stack.ns_per_event",
            median_of(&traced, |p| p.run_s * p.scale() * 1e9 / p.events as f64),
        ),
        ("stack.bytes_per_event", c.delivered / events),
        ("stack.world_new_s", self_s("stack.world_new")),
        ("stack.install_s", self_s("stack.install")),
        ("stack.fabric_cost_s", fabric_cost),
        ("proto.retransmissions", c.retransmissions),
        ("proto.retx_per_mb", c.retransmissions / (c.delivered / 1e6)),
        ("conn.opened", c.opened),
        (
            "conn.established_frac",
            if c.opened > 0.0 {
                c.established / c.opened
            } else {
                0.0
            },
        ),
        ("conn.refused", c.refused),
        ("conn.idle_reaped", c.idle_reaped),
        ("conn.time_wait_high_water", c.time_wait_high_water),
        ("conn.table_capacity", c.table_capacity),
        (
            "mem.allocs_per_event",
            median_of(&traced, |p| p.run_allocs as f64 / p.events as f64),
        ),
        (
            "mem.peak_heap_mb.setup",
            median_of(&traced, |p| p.setup_peak as f64 / 1e6),
        ),
        (
            "mem.peak_heap_mb.run",
            median_of(&traced, |p| p.run_peak as f64 / 1e6),
        ),
        ("monitor.snapshots", c.snapshots),
        ("monitor.emit_s", self_s("monitor.emit")),
        ("monitor.cost_s", monitor_cost),
        ("trace.overflow", c.trace_overflow),
        ("audit.cost_s", audit_cost),
        ("metrics.render_s", self_s("metrics.render")),
        ("workload.build_s", self_s("workload.build")),
        (
            "bench.trace_overhead_s",
            traced_wall - median_of(&plain, |p| p.wall_s * p.scale()),
        ),
        (
            "bench.unspanned_s",
            self_s("bench.pass") + self_s("bench.experiment"),
        ),
    ]);

    println!(
        "  self time per pass (median of {} traced passes; wall {traced_wall:.6} s):",
        traced.len()
    );
    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    for name in SPAN_NAMES {
        let s = self_s(name);
        *layer_self.entry(layer_of(name)).or_insert(0.0) += s;
        println!(
            "    {name:<18} {s:>12.6} s {:>6.1} %",
            100.0 * s / traced_wall
        );
    }
    println!("  per-layer metrics per pass [self time of the metric's layer; - = no span]:");
    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        let own = layer_self
            .get(layer_of(name))
            .map_or("-".to_string(), |s| format!("{s:.6} s"));
        println!("    {name:<32} {v:>16.6} {unit:<14} [{own}]");
        metrics.push((name, v, unit));
    }
    println!(
        "  kernels took {kernel_s:.2} s, sized at {} frames of {} B, hole rate {:.5}, {} connections",
        sizing.frames, sizing.mss, sizing.loss, sizing.conns
    );

    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let out = std::path::Path::new(&dir)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.name, args.seed));
    match spans.write_jsonl(&out) {
        Ok(()) => println!("  spans written to {}", out.display()),
        Err(e) => println!("  spans not written to {}: {e}", out.display()),
    }
    print_checks(args, &ledger);
    Verdict { ledger, metrics }
}

/// Span names the benchmark records, in call order.
const SPAN_NAMES: [&str; 8] = [
    "workload.build",
    "stack.world_new",
    "stack.install",
    "stack.run",
    "monitor.emit",
    "metrics.render",
    "bench.experiment",
    "bench.pass",
];

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_sim_ms", "events/sim-ms"),
    ("sim.queue_ns_per_op", "ns/op"),
    ("stack.run_s", "s"),
    ("stack.ns_per_event", "ns/event"),
    ("stack.bytes_per_event", "B/event"),
    ("stack.world_new_s", "s"),
    ("stack.install_s", "s"),
    ("stack.fabric_ns_per_frame", "ns/frame"),
    ("stack.fabric_cost_s", "s"),
    ("nic.link_ns_per_frame", "ns/frame"),
    ("proto.retransmissions", "count"),
    ("proto.retx_per_mb", "retx/MB"),
    ("proto.reassembly_ns_per_seg", "ns/seg"),
    ("proto.scoreboard_ns_per_merge", "ns/merge"),
    ("conn.opened", "count"),
    ("conn.established_frac", "ratio"),
    ("conn.refused", "count"),
    ("conn.idle_reaped", "count"),
    ("conn.time_wait_high_water", "count"),
    ("conn.table_capacity", "count"),
    ("conn.table_ns_per_op", "ns/op"),
    ("conn.timewait_ns_per_op", "ns/op"),
    ("mem.allocs_per_event", "allocs/event"),
    ("mem.peak_heap_mb.setup", "MB"),
    ("mem.peak_heap_mb.run", "MB"),
    ("mem.pagepool_ns_per_op", "ns/op"),
    ("mem.dca_ns_per_probe", "ns/probe"),
    ("monitor.snapshots", "count"),
    ("monitor.emit_s", "s"),
    ("monitor.sketch_ns_per_record", "ns/record"),
    ("monitor.cost_s", "s"),
    ("trace.overflow", "count"),
    ("audit.cost_s", "s"),
    ("metrics.render_s", "s"),
    ("workload.build_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.unspanned_s", "s"),
];

/// Simulated counts per pass, averaged over one cycle of draws; high-water
/// marks are the largest over the cycle.
#[derive(Default)]
struct Counts {
    events: f64,
    sim_s: f64,
    /// Data frames: delivered bytes over each experiment's MSS.
    frames: f64,
    /// Delivered-byte-weighted payload bytes per data frame.
    mss: u32,
    delivered: f64,
    retransmissions: f64,
    opened: f64,
    established: f64,
    refused: f64,
    idle_reaped: f64,
    snapshots: f64,
    trace_overflow: f64,
    time_wait_high_water: f64,
    table_capacity: f64,
    live_high_water: f64,
}

impl Counts {
    fn of(exps: &[Experiment], cycle: &[Pass]) -> Counts {
        let n = cycle.len() as f64;
        let mut c = Counts::default();
        for p in cycle {
            c.events += p.events as f64 / n;
            c.sim_s += p.sim_s / n;
            c.snapshots += p.snapshots as f64 / n;
            for r in &p.reports {
                let mss = exps
                    .iter()
                    .find(|e| e.label == r.label)
                    .map_or(1, |e| e.mss());
                c.frames += (r.delivered_bytes / mss as u64) as f64 / n;
                c.delivered += r.delivered_bytes as f64 / n;
                c.retransmissions += r.retransmissions as f64 / n;
                c.trace_overflow += r.trace_overflow as f64 / n;
                if let Some(k) = &r.conn {
                    c.opened += k.opened as f64 / n;
                    c.established += k.established as f64 / n;
                    c.time_wait_high_water =
                        c.time_wait_high_water.max(k.time_wait_high_water as f64);
                    c.table_capacity = c.table_capacity.max(k.table_capacity as f64);
                    c.live_high_water = c.live_high_water.max(k.established_high_water as f64);
                }
                if let Some(k) = &r.capacity {
                    c.refused += k.refused as f64 / n;
                    c.idle_reaped += k.idle_reaped as f64 / n;
                }
            }
        }
        c.mss = if c.frames > 0.0 {
            (c.delivered / c.frames) as u32
        } else {
            exps[0].mss()
        }
        .max(1);
        c
    }
}
