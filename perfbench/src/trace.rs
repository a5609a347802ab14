//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer in a span named
//! `<layer>.<operation>`. Spans carry their start and end (nanoseconds since
//! the tracer was created), the span that was open when they started, and
//! the batch or request id they belong to. They stay in memory and are
//! written out once, after the run. A disabled tracer (the untraced run)
//! reads no clock and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Batch, request or pass id (0 when the call has none).
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer prefix of the span's name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle for a span opened with [`Tracer::open`].
#[must_use = "close the span with Tracer::close"]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off; spans already open are still closed.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span opened with [`Tracer::open`]; spans close innermost first.
    pub fn close(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, id);
        let out = f();
        self.close(open);
        out
    }

    /// The index the next opened span will get (to find a root later).
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds, over the span at `root` and all its
    /// descendants: each span's duration minus the part its children cover.
    pub fn self_seconds_by_layer(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut inside = vec![false; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            inside[i] = i == root || span.parent.is_some_and(|p| inside[p]);
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().filter(|(i, _)| inside[*i]) {
            let own = span.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(span.layer()).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_outside_spans() {
        let mut t = Tracer::new(true);
        let outside = t.open("graph.generate", 0);
        t.close(outside);
        let root = t.next_index();
        let r = t.open("bench.measure", 0);
        t.span("serve.request", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(r);
        let by_layer = t.self_seconds_by_layer(root);
        assert!(!by_layer.contains_key("graph"));
        assert!(by_layer["serve"] >= 0.002);
        let total: f64 = by_layer.values().sum();
        let root_span = &t.spans()[root];
        let root_s = (root_span.end_ns - root_span.start_ns) as f64 / 1e9;
        assert!(
            (total - root_s).abs() < 1e-9,
            "self times add up to the root"
        );
        assert_eq!(t.spans()[root + 1].parent, Some(root));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("serve.request", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
