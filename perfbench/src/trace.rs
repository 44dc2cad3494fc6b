//! In-memory spans for the traced run, recorded by the benchmark around
//! its calls into each layer and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.  The layer is the name's prefix before the first
/// `.`; spans named `probe.*` are measurements outside any operation.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.  `enter`/`exit` nest; the innermost open span is the
/// parent of the next one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Start a new operation: spans entered from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record an already finished span (for spans timed on other threads).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            op,
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Self time (span duration minus its children's) summed per layer,
    /// in nanoseconds, over the spans `include` accepts (probes excluded).
    pub fn self_ns_by_layer(&self, include: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if span.layer() != "probe" && include(span) {
                *out.entry(span.layer()).or_insert(0) += span.ns().saturating_sub(children);
            }
        }
        out
    }

    /// Total duration of the operation root spans `include` accepts.
    pub fn root_ns(&self, include: impl Fn(&Span) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.layer() != "probe" && include(s))
            .map(Span::ns)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_probes() {
        let mut t = Tracer::default();
        t.next_op();
        let root = t.enter("core.run");
        t.span("vm.run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        t.span("probe.null", || ());
        let by_layer = t.self_ns_by_layer(|_| true);
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, t.root_ns(|_| true));
        assert!(by_layer["vm"] >= 2_000_000);
        assert!(!by_layer.contains_key("probe"));
    }
}
