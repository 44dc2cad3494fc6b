//! Observability primitives shared by every layer of the workspace.
//!
//! Three building blocks, all **read-only** with respect to program
//! semantics — nothing in this crate may influence a sweep result or a
//! diagnostic (the neutrality suites pin that):
//!
//! * [`metrics`] — lock-cheap counters, gauges and log2-bucketed
//!   histograms (relaxed atomics; `record` never blocks).
//! * [`trace`] — a bounded ring-buffer structured-event tracer with an
//!   optional JSONL file sink, gated by environment variables
//!   (`SAN_TRACE=path` for the VM/sanitizer layer, `SWEEP_TRACE=path`
//!   for the sweep/daemon layer).  When the variable is unset the
//!   tracer costs one relaxed load per *would-be* event.
//! * [`profile`] — plain-data site/function profile reports produced by
//!   the VM's opt-in site profiler and rendered by the `table_profile`
//!   bench binary.

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{Counter, Gauge, HistSummary, Histogram, HistogramSnapshot};
pub use profile::{FuncCounts, ProfileReport, SiteCounts};
pub use trace::{san_tracer, sweep_tracer, TraceValue, Tracer};

/// Escape `s` for inclusion in a JSON string literal.
///
/// Hand-rolled because the workspace's `serde` is a no-op shim; kept
/// here so every crate that emits observability JSON shares one
/// escaper.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
