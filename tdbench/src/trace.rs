//! Spans recorded by the benchmark around its calls into the program's
//! public functions. Nothing here reaches inside the program: a span is
//! the wall time of one call, its parent is the span that was open on the
//! same thread when it started, and spans of one request share `req`.
//! Spans stay in memory and are written out (JSON Lines) when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::Report;

#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    /// 0 = a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Sum of the durations of this span's direct children.
    pub child_ns: u64,
    /// Free-form tag set by the caller (e.g. `write` / `read`).
    pub tag: &'static str,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the time covered by direct children (children never
    /// overlap: they run one after another on the span's own thread).
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// One thread's span recorder. Spans nest through [`Tracer::span`].
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    next: u64,
    req: u64,
    /// Indices (into `spans`) of the open spans, innermost last.
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `thread`; ids from different threads never
    /// collide.
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            thread,
            next: 0,
            req: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start a new request: later root spans carry its id.
    pub fn request(&mut self) {
        self.req = (self.thread << 40) | (self.spans.len() as u64 + 1);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span named `name`; spans opened inside `f` on this
    /// tracer become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.tagged(name, "", f)
    }

    pub fn tagged<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let idx = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
            child_ns: 0,
            tag,
        });
        self.open.push(idx);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        if let Some(&p) = self.open.last() {
            self.spans[p].child_ns += end - start;
        }
        out
    }
}

/// Spans of a whole traced phase, merged from every thread.
#[derive(Default)]
pub struct SpanSet {
    pub spans: Vec<Span>,
}

impl SpanSet {
    pub fn absorb(&mut self, t: Tracer) {
        self.spans.extend(t.spans);
    }

    fn select<'a>(&'a self, name: &'a str, tag: Option<&'a str>) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && tag.is_none_or(|t| s.tag == t))
    }

    /// Median duration (µs) of the spans named `name` (with `tag`, if set).
    pub fn p50_us(&self, name: &str, tag: Option<&str>) -> f64 {
        let mut v: Vec<f64> = self
            .select(name, tag)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        crate::util::median(&mut v)
    }

    /// Median self time (µs): duration minus direct children.
    pub fn self_p50_us(&self, name: &str, tag: Option<&str>) -> f64 {
        let mut v: Vec<f64> = self
            .select(name, tag)
            .map(|s| s.self_ns() as f64 / 1e3)
            .collect();
        crate::util::median(&mut v)
    }

    pub fn total_us(&self, name: &str, tag: Option<&str>) -> f64 {
        self.select(name, tag)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .sum()
    }

    /// End a traced phase: write every span to
    /// `work/spans-<workload>.jsonl` (one JSON object per line, sorted by
    /// start), print a per-name summary to standard error, and report the
    /// span count and the tracing overhead against `busy_s`, the phase's
    /// busy time.
    pub fn finish(
        &mut self,
        workload: &str,
        busy_s: f64,
        report: &mut Report,
    ) -> Result<(), String> {
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        let path = crate::util::work_dir().join(format!("spans-{workload}.jsonl"));
        self.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 / 1e6;
            e.2 += s.self_ns() as f64 / 1e6;
        }
        for (name, (count, total_ms, self_ms)) in by_name {
            eprintln!("span {name:<20} n={count:<8} total={total_ms:.1}ms self={self_ms:.1}ms");
        }
        // The number of spans times the cost of recording one, measured
        // here: comparing the traced half of a run with the untraced half
        // would mostly measure the machine's drift between the halves.
        let n = self.spans.len();
        report.layer(
            "trace.overhead_pct",
            100.0 * n as f64 * span_cost_ns() * 1e-9 / busy_s.max(1e-9),
        );
        report.layer("trace.spans", n as f64);
        Ok(())
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.req,
                s.id,
                s.parent,
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        out.flush()
    }
}

/// Cost of recording one span (ns).
fn span_cost_ns() -> f64 {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);
    const N: usize = 20_000;
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("calibrate", |_| std::hint::black_box(0));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}
