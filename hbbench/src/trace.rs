//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call (or one batch of calls) made from here, and a layer's self time is
//! its span minus the part its child spans cover.
//!
//! Spans stay in memory and are written as JSONL (`name`, `id`, `parent`,
//! `start_ns`, `end_ns`, plus the work count the span covers) when the
//! run ends. With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::quote;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units the span covers (calls, µops, cells), for per-unit
    /// figures; 0 when not meaningful.
    pub count: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` returns its result and the work count it covered.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (R, u64)) -> R {
        if !self.on {
            return f(self).0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.stack.push(id);
        let (r, count) = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.count = count;
        r
    }

    /// Per span name: total self time (ns) and total count.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += s.count;
        }
        out
    }

    /// Self nanoseconds per counted unit of every span named `name`.
    pub fn ns_per(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(f64::NAN, |&(ns, n)| ns as f64 / n.max(1) as f64)
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": {}, \"id\": {id}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.count
            );
        }
        out
    }
}
