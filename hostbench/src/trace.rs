//! Host-time spans around the benchmark's calls into the load engines.
//!
//! Every call is timed, because the design rates need the time spent
//! inside each design's engine calls. Only a traced run also keeps the
//! spans themselves (name, start, end, parent) in memory; they are
//! written out as JSON lines when the run ends.
//!
//! From process start on, the tracer also samples the host's speed
//! after calls with [`calib::work`], spending [`CALIB_SHARE`] of
//! the host time on it, and sums each call's seconds at the reference
//! host's speed beside the measured ones.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::calib;

/// Share of host time spent on speed samples.
const CALIB_SHARE: f64 = 0.08;
/// Fewest samples that give the host's speed at the end of a call.
const RECENT_SAMPLES: usize = 5;

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    /// Indices of the open parent spans, innermost last.
    open: Vec<usize>,
    /// Host seconds per span name, summed over every call: as measured,
    /// and at the reference host's speed.
    totals: BTreeMap<&'static str, f64>,
    calibrated: BTreeMap<&'static str, f64>,
    /// Duration of every speed sample taken, in order, and their sum.
    calib: Vec<f64>,
    calib_s: f64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            keep: false,
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            calibrated: BTreeMap::new(),
            calib: Vec::new(),
            calib_s: 0.0,
        }
    }

    /// Whether spans are kept (the traced run) or only summed.
    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let secs = end.duration_since(start).as_secs_f64();
        *self.totals.entry(name).or_insert(0.0) += secs;
        self.record(name, start, end);
        let before = self.calib.len();
        while self.calib_s < CALIB_SHARE * self.origin.elapsed().as_secs_f64() {
            self.calibrate();
        }
        // The call is counted at the speed of the samples taken right
        // after it, or of the last few if it was too short for more.
        let recent = before.min(self.calib.len().saturating_sub(RECENT_SAMPLES));
        let speed = self.host_speed(recent);
        *self.calibrated.entry(name).or_insert(0.0) += secs * speed;
        out
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.keep {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
            };
            self.spans.push(span);
        }
    }

    /// Takes one speed sample now, as a leaf span named `host.calib`.
    pub fn calibrate(&mut self) {
        let start = Instant::now();
        std::hint::black_box(calib::work());
        let end = Instant::now();
        let secs = end.duration_since(start).as_secs_f64();
        self.calib.push(secs);
        self.calib_s += secs;
        self.record("host.calib", start, end);
    }

    /// Number of speed samples taken so far.
    pub fn calib_count(&self) -> usize {
        self.calib.len()
    }

    /// Host seconds spent taking speed samples so far.
    pub fn calib_seconds(&self) -> f64 {
        self.calib_s
    }

    /// Share of the host time since the tracer started spent on speed
    /// samples.
    pub fn calib_share(&self) -> f64 {
        self.calib_s / self.origin.elapsed().as_secs_f64()
    }

    /// Host speed over the samples from index `from` on (see
    /// [`calib::speed`]).
    pub fn host_speed(&self, from: usize) -> f64 {
        calib::speed(&self.calib[from..])
    }

    /// Opens a parent span; the leaf spans until [`Tracer::end`] are its
    /// children. Parent spans are kept only in a traced run.
    pub fn begin(&mut self, name: &'static str) {
        if self.keep {
            let start_ns = self.ns(Instant::now());
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Host seconds summed over every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// [`Tracer::total`] at the reference host's speed.
    pub fn calibrated_total(&self, name: &str) -> f64 {
        self.calibrated.get(name).copied().unwrap_or(0.0)
    }

    pub fn reset_totals(&mut self) {
        self.totals.clear();
        self.calibrated.clear();
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes the kept spans as JSON lines: `id`, `name`, `start_ns`,
    /// `end_ns` and `parent` (an `id`, or null for a root span).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
