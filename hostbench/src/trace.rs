//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public functions. They stay in memory and are written out
//! when the run ends. A layer's number is its *self time*: a span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `fabric.run`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (0 = set-up).
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when armed; when not, [`Tracer::span`] only calls its
/// closure, so untraced passes run the same code at no cost.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Per-name totals: calls and summed self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    /// Number of spans with this name.
    pub calls: u64,
    /// Summed self time in ns.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call in ms (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next op: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls and self time per span name; `ops_only` skips set-up spans.
    pub fn self_times(&self, ops_only: bool) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if ops_only && s.op == 0 {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += s.ns().saturating_sub(child);
        }
        out
    }

    /// Full durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let st = tr.self_times(false);
        let outer = st["outer"];
        let inner = st["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 4_000_000);
        assert!(outer.self_ns >= 2_000_000 && outer.self_ns < inner.self_ns);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].op, 1);
    }

    #[test]
    fn disarmed_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("x", |tr| tr.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
