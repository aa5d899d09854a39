//! Spans recorded by the benchmark around its calls into the library.
//!
//! Every span has a name, a start, an end and a parent; all spans of one
//! workload run share the run id. Spans stay in memory while the run is
//! timed and are written out as JSONL afterwards. A disabled tracer records
//! nothing, so the same code serves both the timed and the traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Time covered by the direct children (they never overlap: spans are
    /// only opened on the benchmark's own, serial thread).
    child_ns: u64,
}

impl Span {
    fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Self { enabled, run_id, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns, child_ns: 0 });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if let Some(p) = parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    /// Total duration (s) of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 * 1e-9
    }

    /// Summed self time (s) of every span whose name starts with one of
    /// `prefixes` and that lies inside a span called `root`.
    pub fn self_time_under(&self, root: &str, prefixes: &[&str]) -> f64 {
        let inside = |s: &Span| {
            let mut parent = s.parent;
            while let Some(p) = parent {
                if self.spans[p].name == root {
                    return true;
                }
                parent = self.spans[p].parent;
            }
            false
        };
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| prefixes.iter().any(|p| s.name.starts_with(p)) && inside(s))
            .map(Span::self_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run_id\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{}}}",
                self.run_id,
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, 7);
        t.span("root", |t| {
            t.span("core.a", |t| {
                t.span("annlib.b", |_| std::thread::sleep(std::time::Duration::from_millis(2)))
            });
        });
        let a = t.spans.iter().find(|s| s.name == "core.a").unwrap();
        let b = t.spans.iter().find(|s| s.name == "annlib.b").unwrap();
        assert_eq!(a.child_ns, b.end_ns - b.start_ns);
        assert!(t.self_time_under("root", &["annlib."]) >= 0.002);
        assert_eq!(t.to_jsonl().lines().count(), 3);

        let mut off = Tracer::new(false, 7);
        assert_eq!(off.span("root", |_| 5), 5);
        assert!(off.to_jsonl().is_empty());
    }
}
