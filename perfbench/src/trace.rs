//! The benchmark's one clock, its span recorder, and the order
//! statistics every metric is reported through.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public functions (name, start, end, parent span, job id). They
//! stay in memory and are written out as JSON lines when the run ends.
//! Nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Now, on the benchmark's monotonic clock.
pub fn now() -> Instant {
    // lb-lint: allow(no-adhoc-timing) -- the benchmark harness exists to measure wall-clock time; this is its one clock
    Instant::now()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the elapsed duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = now();
    let out = f();
    (out, start.elapsed())
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let a = v.get(lo).copied().unwrap_or(0.0);
    let b = v.get(hi).copied().unwrap_or(a);
    a + (b - a) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One recorded span.
struct Span {
    name: String,
    id: u64,
    parent: Option<u64>,
    job: Option<u64>,
    start: Duration,
    end: Duration,
}

/// An in-memory span recorder. A disabled recorder hands out no ids and
/// stores nothing, so untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

/// An open span: close it with [`Tracer::close`].
pub struct Open {
    name: String,
    id: u64,
    parent: Option<u64>,
    job: Option<u64>,
    start: Instant,
}

impl Open {
    /// The span id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    /// A recorder whose clock starts at `origin`; ids start at
    /// `first_id` so recorders of different threads never collide.
    pub fn new(enabled: bool, origin: Instant, first_id: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run alternates epochs).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span, or returns `None` while disabled.
    pub fn open(&mut self, name: &str, parent: Option<u64>, job: Option<u64>) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        self.next_id += 1;
        Some(Open {
            name: name.to_string(),
            id: self.next_id,
            parent,
            job,
            start: now(),
        })
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, open: Option<Open>) {
        if let Some(o) = open {
            let end = now();
            self.spans.push(Span {
                name: o.name,
                id: o.id,
                parent: o.parent,
                job: o.job,
                start: o.start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        job: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, job);
        let out = f();
        self.close(open);
        out
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line, sorted by start.
    pub fn write_jsonl(&mut self, path: &Path, header: &str) -> Result<(), String> {
        self.spans.sort_by_key(|s| (s.start, s.id));
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            let _infallible = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"job\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                s.id,
                opt(s.parent),
                opt(s.job),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}
