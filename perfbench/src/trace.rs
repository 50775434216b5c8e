//! The benchmark's own span recorder. Spans are taken around calls into
//! each layer's public functions (the program itself is not
//! instrumented), kept in memory, and summed per layer when the run
//! ends.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

use crate::metrics::Report;
use crate::stats::median;

/// One recorded span: a layer name, its interval relative to the trace
/// start, and the span that was open when it began.
#[derive(Debug, Clone)]
struct Span {
    /// Layer metric the span's time is charged to, e.g. `sim.busy_ms`.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, nanoseconds after the trace began.
    start_ns: u64,
    /// End, nanoseconds after the trace began (`start_ns` while open).
    end_ns: u64,
}

/// An in-memory trace: a stack of open spans over a flat list.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span charged to `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part its child spans cover, summed by name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Milliseconds of `wall_ms` that no top-level span covers.
    pub fn unattributed_ms(&self, wall_ms: f64) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        wall_ms - covered as f64 / 1e6
    }
}

/// Repeats a traced pass until `seconds` have passed and at least `min`
/// passes ran. Each pass gets a fresh trace and is timed as a whole; it
/// returns whether its output was correct, and that counts as one
/// operation in `report`. Reports each layer's median self time, the
/// median unattributed time, and the median wall time over
/// `untraced_ms` as the tracing overhead. Returns the last pass's
/// output.
pub fn repeat<T>(
    report: &mut Report,
    seconds: f64,
    min: usize,
    untraced_ms: f64,
    mut pass: impl FnMut(&mut Trace) -> io::Result<(bool, T)>,
) -> io::Result<T> {
    let mut walls = Vec::new();
    let mut unattributed = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    let mut last = None;
    while walls.len() < min.max(1) || started.elapsed().as_secs_f64() < seconds {
        let mut t = Trace::new();
        let begun = Instant::now();
        let (ok, out) = pass(&mut t)?;
        let wall_ms = begun.elapsed().as_secs_f64() * 1e3;
        report.count(ok);
        walls.push(wall_ms);
        unattributed.push(t.unattributed_ms(wall_ms));
        for (name, ms) in t.self_ms() {
            layers.entry(name).or_default().push(ms);
        }
        last = Some(out);
    }
    for (name, values) in &layers {
        report.set(name, median(values));
    }
    report.set("trace.unattributed_ms", median(&unattributed));
    report.set("trace.overhead_ratio", median(&walls) / untraced_ms);
    Ok(last.expect("at least one pass ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_gaps_are_unattributed() {
        let mut t = Trace::new();
        let started = Instant::now();
        t.span("outer", || {
            std::thread::sleep(Duration::from_millis(4));
        });
        let outer = t.enter("parent");
        t.span("child", || std::thread::sleep(Duration::from_millis(6)));
        t.exit(outer);
        std::thread::sleep(Duration::from_millis(5));
        let wall = started.elapsed().as_secs_f64() * 1e3;
        let self_ms = t.self_ms();
        assert!(self_ms["outer"] >= 4.0);
        assert!(self_ms["child"] >= 6.0);
        // The parent did nothing but wait for its child.
        assert!(self_ms["parent"] < 1.0, "{self_ms:?}");
        assert_eq!(t.spans[2].parent, Some(1));
        let gap = t.unattributed_ms(wall);
        assert!((5.0..wall).contains(&gap), "gap {gap} of {wall}");
    }
}
