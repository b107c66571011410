//! Spans around public calls, and the per-layer metrics derived from them.
//!
//! A span records its name, start, end, parent and the run id, plus the
//! allocations made on the recording thread and in the whole process while
//! it was open. Spans nest by a stack (the recorder lives on the driving
//! thread), are kept in memory, and are written out as one JSON file when
//! the run ends, together with each span's self time: its duration minus
//! the time its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// What one closed span measured.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub ms: f64,
    pub thread_allocs: u64,
    pub process_allocs: u64,
}

struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    thread_allocs: u64,
    process_allocs: u64,
}

/// The recorder for one run.
pub struct Tracer {
    run_id: String,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; `f` may open child spans.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Measured) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.t0.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            thread_allocs: 0,
            process_allocs: 0,
        });
        self.stack.push(idx);
        let (ta, pa) = (alloc::thread_allocs(), alloc::process_allocs());
        let start = Instant::now();
        let value = f(self);
        let elapsed = start.elapsed();
        let measured = Measured {
            ms: elapsed.as_secs_f64() * 1e3,
            thread_allocs: alloc::thread_allocs() - ta,
            process_allocs: alloc::process_allocs() - pa,
        };
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.end_ns = span.start_ns + elapsed.as_nanos();
        span.thread_allocs = measured.thread_allocs;
        span.process_allocs = measured.process_allocs;
        (value, measured)
    }

    /// A span with no children.
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Measured) {
        self.span(name, |_| f())
    }

    /// Records one per-layer metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The per-layer metrics recorded so far, in recording order.
    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u128> {
        let mut own: Vec<u128> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes every span (with self time) and every metric as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = String::new();
        let _ = write!(out, "{{\"run\":\"{}\",\"spans\":[", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"run\":\"{}\",\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\
                 \"self_us\":{:.1},\"parent\":{parent},\"thread_allocs\":{},\"process_allocs\":{}}}",
                self.run_id,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                own[i] as f64 / 1e3,
                s.thread_allocs,
                s.process_allocs
            );
        }
        out.push_str("\n],\"metrics\":{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(*value));
        }
        out.push_str("\n}}\n");
        std::fs::write(path, out)
    }
}

/// A JSON number for `v` (`null` for a non-finite value).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("t".into());
        t.span("outer", |t| {
            t.leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let own = t.self_ns();
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(own[0] < 10_000_000, "outer self time {} ns", own[0]);
        assert!(own[1] >= 20_000_000);
    }

    #[test]
    fn single_thread_alloc_counts_repeat() {
        let mut t = Tracer::new("t".into());
        let work = || (0..100).map(|i| vec![i; 8]).collect::<Vec<_>>();
        let (_, a) = t.leaf("a", work);
        let (_, b) = t.leaf("b", work);
        assert_eq!(a.thread_allocs, b.thread_allocs);
        assert!(a.thread_allocs >= 101);
    }
}
