//! Host-time spans recorded around the benchmark's own calls into each
//! crate's public functions. Spans stay in memory while the benchmark runs
//! and are written out as JSONL when it ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One timed call: name, interval, the span that caused it, and the run id
/// it shares with every other span of the same experiment.
struct Span {
    name: &'static str,
    run: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    next_run: u32,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A span sink; the disabled one records nothing and costs one branch.
#[derive(Clone, Default)]
pub struct Spans(Option<Rc<RefCell<Recorder>>>);

impl Spans {
    /// A recording sink.
    pub fn recording() -> Self {
        Spans(Some(Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            next_run: 0,
        }))))
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, false, f)
    }

    /// Like [`Spans::time`], but the span and everything under it get a
    /// fresh run id (one per experiment or pass).
    pub fn time_run<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, true, f)
    }

    fn timed<T>(&self, name: &'static str, new_run: bool, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.0 else {
            return f();
        };
        let (id, outer_run) = {
            let mut r = rec.borrow_mut();
            let outer_run = r.run;
            if new_run {
                r.next_run += 1;
                r.run = r.next_run;
            }
            let span = Span {
                name,
                run: r.run,
                parent: r.open.last().copied(),
                start_ns: r.now_ns(),
                end_ns: 0,
            };
            r.spans.push(span);
            let id = r.spans.len() - 1;
            r.open.push(id);
            (id, outer_run)
        };
        let out = f();
        let mut r = rec.borrow_mut();
        r.spans[id].end_ns = r.now_ns();
        r.open.pop();
        r.run = outer_run;
        out
    }

    /// Number of spans recorded so far (a cursor for [`Spans::self_times`]).
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |r| r.borrow().spans.len())
    }

    /// Self time in seconds per span name over the spans recorded since
    /// cursor `from`: each span's duration minus the part its direct
    /// children cover (children nest, since the benchmark is one thread).
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let Some(rec) = &self.0 else {
            return out;
        };
        let r = rec.borrow();
        let spans = &r.spans[from..];
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                covered[p - from] += s.end_ns - s.start_ns;
            }
        }
        for (s, cov) in spans.iter().zip(covered) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(cov);
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e9;
        }
        out
    }

    /// Write every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(rec) = &self.0 else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in rec.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
