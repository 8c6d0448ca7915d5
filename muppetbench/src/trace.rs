//! The traced run's span recorder: spans from the benchmark's own code
//! around each call into a layer, kept in memory and written out as
//! JSON lines when the run ends, plus per-layer accumulators; and the
//! [`Probe`] each operation is written against, which records spans in
//! a traced run and only times the same calls in an untraced one.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::measure::time_ms;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span log plus named per-layer sums.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sums: BTreeMap<&'static str, f64>,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sums: BTreeMap::new(),
            ops: 0,
        }
    }

    /// A fresh operation id: the spans of one operation share it.
    pub fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name` for operation `op`; the span's
    /// parent is the innermost span still open. Returns `f`'s value and
    /// the span's length in milliseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[idx].end_us = end_us;
        (out, (end_us - start_us) / 1e3)
    }

    /// Add `v` to the per-layer sum `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Self time per span name, in ms: each span's length minus the part
    /// its direct children cover. Returns `(name, spans, total, self)`.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_insert((0, 0.0, 0.0));
            let len = s.end_us - s.start_us;
            e.0 += 1;
            e.1 += len / 1e3;
            e.2 += (len - child_us[i]) / 1e3;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.op, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// One operation's view of the optional tracer. Every workload runs its
/// operations through a probe, so the traced and the untraced run
/// execute the same code: with a tracer, [`Probe::span`] records a span
/// and [`Probe::add`] a per-layer sum; without one, `span` only times
/// its closure and `add` does nothing.
pub struct Probe<'a> {
    tracer: Option<&'a mut Tracer>,
    op: u64,
}

impl<'a> Probe<'a> {
    /// A probe for a new operation, with a fresh operation id when
    /// `tracer` is given.
    pub fn new(mut tracer: Option<&'a mut Tracer>) -> Probe<'a> {
        let op = tracer.as_deref_mut().map_or(0, Tracer::next_op);
        Probe { tracer, op }
    }

    /// Run `f` inside a span named `name` (or just time it); returns
    /// `f`'s value and its length in milliseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe<'_>) -> T) -> (T, f64) {
        let op = self.op;
        match self.tracer.as_deref_mut() {
            None => time_ms(|| f(&mut Probe { tracer: None, op })),
            Some(t) => t.span(name, op, |t| {
                f(&mut Probe {
                    tracer: Some(t),
                    op,
                })
            }),
        }
    }

    /// Add `v` to the per-layer sum `name` in a traced run.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.add(name, v);
        }
    }

    /// The tracer and this operation's id, in a traced run only: for
    /// the layer replays that follow a traced operation.
    pub fn traced(&mut self) -> Option<(&mut Tracer, u64)> {
        let op = self.op;
        self.tracer.as_deref_mut().map(|t| (t, op))
    }
}
