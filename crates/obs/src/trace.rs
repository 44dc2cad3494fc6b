//! Bounded ring-buffer structured-event tracer with a JSONL file sink.
//!
//! Two process-wide tracers exist, each gated by an environment
//! variable naming the sink file:
//!
//! * [`san_tracer`] — `SAN_TRACE=path`: VM/sanitizer-layer events
//!   (one `tier_promote` per function translated to the fast tier).
//! * [`sweep_tracer`] — `SWEEP_TRACE=path`: sweep/daemon-layer events
//!   (client connects, request accept/cancel, shard requeues, steals).
//!
//! When the variable is unset the tracer is disabled and an event costs
//! one relaxed atomic load at the call site (callers should check
//! [`Tracer::enabled`] before building field lists).  Tracing is
//! observational only: nothing downstream reads trace state, so traced
//! and untraced runs produce bit-identical results — the neutrality
//! suites pin this.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json_escape;

/// Maximum number of events retained in the in-memory ring.
pub const RING_CAPACITY: usize = 1024;

/// A field value in a structured trace event.
#[derive(Clone, Debug)]
pub enum TraceValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with `{:?}`, so round-trippable).
    F64(f64),
    /// String (escaped).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl TraceValue {
    fn render(&self) -> String {
        match self {
            TraceValue::U64(v) => v.to_string(),
            TraceValue::I64(v) => v.to_string(),
            TraceValue::F64(v) => {
                if v.is_finite() {
                    format!("{v:?}")
                } else {
                    format!("\"{v:?}\"")
                }
            }
            TraceValue::Str(s) => format!("\"{}\"", json_escape(s)),
            TraceValue::Bool(b) => b.to_string(),
        }
    }
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> Self {
        TraceValue::U64(v)
    }
}

impl From<u32> for TraceValue {
    fn from(v: u32) -> Self {
        TraceValue::U64(u64::from(v))
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> Self {
        TraceValue::U64(v as u64)
    }
}

impl From<i64> for TraceValue {
    fn from(v: i64) -> Self {
        TraceValue::I64(v)
    }
}

impl From<f64> for TraceValue {
    fn from(v: f64) -> Self {
        TraceValue::F64(v)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> Self {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(v)
    }
}

impl From<bool> for TraceValue {
    fn from(v: bool) -> Self {
        TraceValue::Bool(v)
    }
}

struct TracerInner {
    ring: VecDeque<String>,
    dropped: u64,
    sink: Option<File>,
}

/// A structured event tracer: bounded in-memory ring plus an optional
/// append-only JSONL file sink.
pub struct Tracer {
    enabled: AtomicBool,
    start: Instant,
    inner: Mutex<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A disabled tracer: every [`event`](Tracer::event) is a no-op
    /// after one relaxed load.
    pub fn disabled() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            start: Instant::now(),
            inner: Mutex::new(TracerInner {
                ring: VecDeque::new(),
                dropped: 0,
                sink: None,
            }),
        }
    }

    /// An enabled tracer writing JSONL to `sink` (ring-only if `None`).
    pub fn enabled_with(sink: Option<File>) -> Self {
        Tracer {
            enabled: AtomicBool::new(true),
            start: Instant::now(),
            inner: Mutex::new(TracerInner {
                ring: VecDeque::with_capacity(RING_CAPACITY),
                dropped: 0,
                sink,
            }),
        }
    }

    /// Build a tracer from the environment variable `var`: unset or
    /// empty means disabled; otherwise the value names the JSONL sink
    /// file (an unopenable path degrades to ring-only, with a warning
    /// on stderr).
    pub fn from_env(var: &str) -> Self {
        match std::env::var(var) {
            Ok(path) if !path.is_empty() => {
                let sink = match File::create(&path) {
                    Ok(f) => Some(f),
                    Err(e) => {
                        eprintln!("obs: cannot open {var}={path}: {e}; tracing to ring only");
                        None
                    }
                };
                Tracer::enabled_with(sink)
            }
            _ => Tracer::disabled(),
        }
    }

    /// Whether events are being recorded.  Check this before building
    /// an event's field list, so disabled tracing allocates nothing.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record a structured event.  `name` identifies the event kind;
    /// `fields` are rendered in order into one JSON object per line.
    pub fn event(&self, name: &str, fields: &[(&str, TraceValue)]) {
        if !self.enabled() {
            return;
        }
        let mut line = format!(
            "{{\"ev\":\"{}\",\"t_us\":{}",
            json_escape(name),
            self.start.elapsed().as_micros()
        );
        for (key, value) in fields {
            line.push_str(&format!(",\"{}\":{}", json_escape(key), value.render()));
        }
        line.push('}');
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.ring.len() >= RING_CAPACITY {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(line.clone());
        if let Some(sink) = inner.sink.as_mut() {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }

    /// The retained ring contents, oldest first.
    pub fn recent(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.ring.iter().cloned().collect()
    }

    /// Number of events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.dropped
    }
}

/// The process-wide VM/sanitizer-layer tracer (`SAN_TRACE=path`).
pub fn san_tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer::from_env("SAN_TRACE"))
}

/// The process-wide sweep/daemon-layer tracer (`SWEEP_TRACE=path`).
pub fn sweep_tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer::from_env("SWEEP_TRACE"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.event("ignored", &[("k", TraceValue::from(1u64))]);
        assert!(t.recent().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn events_render_as_one_json_object_per_line() {
        let t = Tracer::enabled_with(None);
        t.event(
            "promoted",
            &[
                ("func", TraceValue::from("bench_main")),
                ("calls", TraceValue::from(2u64)),
                ("osr", TraceValue::from(false)),
            ],
        );
        let lines = t.recent();
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"ev\":\"promoted\",\"t_us\":"), "{line}");
        assert!(line.contains("\"func\":\"bench_main\""), "{line}");
        assert!(line.contains("\"calls\":2"), "{line}");
        assert!(line.ends_with("\"osr\":false}"), "{line}");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::enabled_with(None);
        for i in 0..(RING_CAPACITY as u64 + 10) {
            t.event("tick", &[("i", TraceValue::from(i))]);
        }
        assert_eq!(t.recent().len(), RING_CAPACITY);
        assert_eq!(t.dropped(), 10);
        assert!(t.recent()[0].contains("\"i\":10"));
    }

    #[test]
    fn strings_are_escaped() {
        let t = Tracer::enabled_with(None);
        t.event("e", &[("s", TraceValue::from("a\"b\\c\nd"))]);
        assert!(t.recent()[0].contains("\"s\":\"a\\\"b\\\\c\\nd\""));
    }
}
