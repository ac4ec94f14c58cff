//! Harness-side tracing: spans recorded from the benchmark's own files
//! around each call into a layer, kept in memory and written out when
//! the run ends. Spans inside the program (`pse-obs`) are deliberately
//! not used — layers are measured from outside.
//!
//! A [`Tracer`] is owned by one thread (no lock on the hot path); the
//! per-thread tracers are merged after the threads join. A disabled
//! tracer records nothing, which is how the untraced run keeps tracing
//! off while sharing the code path of the traced one.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.connect`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one (within the same tracer).
    pub parent: Option<u32>,
    /// Request identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self { enabled, epoch, spans: Vec::new() }
    }

    /// Another tracer with the same epoch and switch, for a new thread.
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.epoch)
    }

    /// Record a span from its endpoints (the callers take these instants
    /// anyway, for the latencies they report). Returns the span's index,
    /// to parent children on.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, request });
        Some(self.spans.len() as u32 - 1)
    }

    /// Time `f` under a span and return its result.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), None, request);
        out
    }

    /// Absorb another thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Summed wall (seconds) of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Summed self time (seconds) per span name.
    pub fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *out.entry(span.name).or_default() += self_ns as f64 / 1e9;
        }
        out
    }

    /// Write one JSON object per span, its self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self_times_ns(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once,
/// and a child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("connect", 10, 30, Some(0)),
            // Overlaps `connect` on [20, 30): that stretch counts once.
            span("write", 20, 50, Some(0)),
            span("wait", 60, 90, Some(0)),
            // A grandchild shortens `wait`, not `request`.
            span("kernel", 70, 80, Some(3)),
            // A child leaking past its parent is clipped to it.
            span("late", 95, 140, Some(0)),
        ];
        let got = self_times_ns(&spans);
        // request: 100 - ([10,50) + [60,90) + [95,100)) = 100 - 75.
        assert_eq!(got, vec![25, 20, 30, 20, 10, 45]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.record("z", Instant::now(), Instant::now(), None, 1), None);
        assert_eq!(t.time("y", 2, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents_and_totals_group_by_name() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let mut b = a.fork();
        for (tracer, request) in [(&mut a, 1), (&mut b, 2)] {
            let (t0, t1) = (Instant::now(), Instant::now());
            let root = tracer.record("request", t0, t1, None, request);
            assert_eq!(root, Some(0));
            tracer.record("connect", t0, t1, root, request);
        }
        a.merge(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2), "second thread's child points at its own root");
        assert_eq!(a.durations_ns("connect").len(), 2);
        let selfs = a.self_time_s();
        assert!(selfs["request"] >= 0.0 && selfs.contains_key("connect"));
    }
}
