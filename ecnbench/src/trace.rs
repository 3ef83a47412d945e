//! In-memory spans recorded by the traced run around the calls the
//! benchmark makes into each layer, and the per-layer self times derived
//! from them. Nothing inside the program is instrumented: every span is
//! opened and closed by benchmark code.
//!
//! A span's layer is its name up to the first `.` (`serve.handle_batch`
//! belongs to `serve`). Spans of one client call share a call id. Some
//! children are *replays*: after a timed network call, the benchmark
//! re-runs that call's server handling and wire codec in-process and
//! files those spans under the call. A replay does not lie inside its
//! parent's interval, so a span's self time is its duration minus the
//! summed durations of its children (capped at its own duration), which
//! for children that do nest in time equals the covered part.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Id shared by every span of one call.
    pub call: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any thread; written out once at the end.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    next_call: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            next_call: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh call id.
    pub fn call(&self) -> u64 {
        self.next_call.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        call: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            call,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
        id
    }

    /// Time `f` as one span; returns its result, the span id and the
    /// duration in milliseconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        call: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, u64, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, call, parent, start, end);
        (out, id, (end - start).as_secs_f64() * 1e3)
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"call\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.call, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, in milliseconds per call: each span's duration
/// minus its children's, summed per layer and divided by the number of
/// distinct calls in which the layer has a span.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ms.entry(p).or_default() += s.ms();
        }
    }
    let mut total: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for s in spans {
        let covered = child_ms.get(&s.id).copied().unwrap_or(0.0).min(s.ms());
        *total.entry(s.layer()).or_default() += s.ms() - covered;
        calls.entry(s.layer()).or_default().insert(s.call);
    }
    total
        .into_iter()
        .map(|(layer, ms)| (layer, ms / calls[layer].len() as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, call: u64, name: &'static str, ms: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            call,
            name,
            start_ns: ms.0 * 1_000_000,
            end_ns: ms.1 * 1_000_000,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_call() {
        let spans = vec![
            // Call 1: a 13 ms network call with replayed children.
            span(1, None, 1, "net.client_batch", (0, 13)),
            span(2, Some(1), 1, "serve.handle_batch", (20, 21)),
            span(3, Some(1), 1, "wire.encode_response", (21, 23)),
            span(4, Some(1), 1, "wire.decode_response", (23, 26)),
            // Call 2: the same shape, 15 ms.
            span(5, None, 2, "net.client_batch", (30, 45)),
            span(6, Some(5), 2, "serve.handle_batch", (50, 51)),
            span(7, Some(5), 2, "wire.encode_response", (51, 53)),
            span(8, Some(5), 2, "wire.decode_response", (53, 56)),
            // Call 3: nested children inside a 10 ms emulate.
            span(9, None, 3, "emulator.emulate", (100, 110)),
            span(10, Some(9), 3, "sht.synthesis", (101, 105)),
            span(11, Some(9), 3, "stats.sample_path", (105, 109)),
        ];
        let got = layer_self_ms(&spans);
        assert_eq!(got["net"], 8.0);
        assert_eq!(got["serve"], 1.0);
        assert_eq!(got["wire"], 5.0);
        assert_eq!(got["emulator"], 2.0);
        assert_eq!(got["sht"], 4.0);
        assert_eq!(got["stats"], 4.0);
    }

    #[test]
    fn children_longer_than_parent_leave_zero_self_time() {
        let spans = vec![
            span(1, None, 1, "net.client_batch", (0, 2)),
            span(2, Some(1), 1, "serve.handle_batch", (3, 6)),
        ];
        let got = layer_self_ms(&spans);
        assert_eq!(got["net"], 0.0);
        assert_eq!(got["serve"], 3.0);
    }

    #[test]
    fn recorder_keeps_parent_links_and_call_ids() {
        let tracer = Tracer::new();
        let call = tracer.call();
        let ((), root, _) = tracer.time("net.client_batch", call, None, || {});
        let ((), child, _) = tracer.time("serve.handle_batch", call, Some(root), || {});
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans.iter().all(|s| s.call == call));
        assert_eq!(spans[1].layer(), "serve");
        assert_ne!(tracer.call(), call);
    }
}
