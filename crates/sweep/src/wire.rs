//! The versioned, line-oriented wire format spoken between the sweep
//! coordinator and its worker processes.
//!
//! The workspace's `serde` shim is a no-op (nothing in the tree actually
//! serializes), so the sweep subsystem hand-rolls its own encoding.  The
//! format is deliberately simple and deterministic:
//!
//! * every message is one or more text lines; fields within a line are
//!   separated by tabs, with `\` / tab / newline / carriage-return escaped
//!   inside string fields ([`escape`] / [`unescape`]);
//! * `f64` fields are encoded as the hex of their IEEE-754 bit pattern, so
//!   decoding reproduces the coordinator-side value *bit for bit* — the
//!   byte-identical-results contract of `tests/sharded_sweep.rs` depends
//!   on this;
//! * map fields ([`ErrorStats`]'s per-kind counters) are emitted in
//!   [`ErrorKind::all`] order so the same stats always encode to the same
//!   bytes;
//! * both sides open with the [`HANDSHAKE`] line, which carries the
//!   [`WIRE_VERSION`]; a mismatch fails fast with [`WireError::Version`].
//!
//! Because the format is hand-rolled it gets its own round-trip property
//! suite (`crates/sweep/tests/wire_properties.rs`).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use effective_runtime::{Bounds, ErrorKind, ErrorStats};
use effective_san::{Parallelism, RunReport, SpecRow};
use obs::HistSummary;
use san_api::{Diagnostic, SanStats, SanitizerKind};
use vm::ExecStats;
use workloads::Scale;

/// Version of the wire format; bumped on any incompatible change.
/// Version 3 widened the `exec` line with the tiered-execution counters
/// (`tier_promotions`, `fast_calls`).  Version 4 added the networked
/// sweep-service frames: the `hello` capability line workers send after
/// the handshake, `hb` heartbeats, client `request` blocks, and the
/// streamed `accepted`/`srow`/`sdone`/`sfail` service replies.  Version 5
/// widened the `exec` line again with `ExecStats::checks_elided`, which
/// the wire still carries although the counter now always reads 0.
/// Version 6 added the daemon-introspection frames: a client may send a
/// bare [`STATS_REQUEST`] line instead of a request block, answered with
/// a `stats` header, per-worker `wstat` lines (queue depth, completed /
/// failed / stolen shard counts, heartbeat-gap and shard-latency
/// histogram summaries), per-request `rstat` progress lines, and an
/// `endstats` terminator.  Version 7 added the fleet-elasticity frames:
/// an optional `auth` token line immediately after the handshake (every
/// connection class — worker, client, registration), the structured
/// `authfail` rejection, the `busy` admission-control reject carrying a
/// retry-after hint, the token-gated [`SHUTDOWN_REQUEST`] control frame
/// and its [`SHUTDOWN_ACK`], and widened `stats`/`wstat`/`rstat` lines
/// (pending-request and busy-reject counters, per-slot live/registered
/// flags, per-request queue depth).
pub const WIRE_VERSION: u32 = 7;

/// The handshake line both sides send before anything else.
pub const HANDSHAKE: &str = "effective-san-sweep-wire 7";

/// The line a client sends (in place of a `request` block) to query the
/// daemon's live statistics instead of submitting a sweep.
pub const STATS_REQUEST: &str = "stats";

/// The line a client sends (in place of a `request` block) to ask the
/// daemon to shut down gracefully: stop accepting, drain in-flight jobs,
/// exit 0.  When the daemon carries a token the requester must have
/// authenticated; the daemon answers with [`SHUTDOWN_ACK`] before it
/// starts draining.
pub const SHUTDOWN_REQUEST: &str = "shutdown";

/// The daemon's acknowledgement of a [`SHUTDOWN_REQUEST`].
pub const SHUTDOWN_ACK: &str = "shutdown-ok";

/// Parse the version number out of a handshake line, if the line is a
/// handshake at all (`effective-san-sweep-wire <n>`).
pub fn handshake_version(line: &str) -> Option<u32> {
    line.strip_prefix("effective-san-sweep-wire ")?.parse().ok()
}

/// Accept a peer's handshake line, rejecting version skew (and
/// non-handshake garbage) with a [`WireError::Version`] whose rendering
/// names both versions — so "a v2 worker connected" is diagnosable from
/// the error alone.
pub fn check_handshake(line: &str) -> Result<(), WireError> {
    if line == HANDSHAKE {
        Ok(())
    } else {
        Err(WireError::Version {
            got: line.to_string(),
        })
    }
}

/// Errors produced while decoding the wire format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer's handshake line did not match [`HANDSHAKE`].
    Version {
        /// The line actually received.
        got: String,
    },
    /// The stream ended in the middle of a message.
    UnexpectedEof {
        /// What the decoder was waiting for.
        expected: &'static str,
    },
    /// A line's tag or field count did not match the expected message.
    UnexpectedLine {
        /// What the decoder was waiting for.
        expected: &'static str,
        /// The line actually received.
        got: String,
    },
    /// A field failed to parse.
    Field {
        /// The field's name.
        field: &'static str,
        /// The raw field value.
        value: String,
        /// Why it failed to parse.
        reason: String,
    },
    /// Reading from the underlying stream failed.
    Io {
        /// The rendered I/O error.
        message: String,
    },
    /// No line arrived within a read deadline (the peer is silent, not
    /// demonstrably dead — the retry machinery treats both the same way).
    Timeout {
        /// How long the reader waited, in milliseconds.
        waited_ms: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Version { got } => {
                write!(
                    f,
                    "wire-format handshake mismatch: expected `{HANDSHAKE}`, got `{got}`"
                )?;
                if let Some(peer) = handshake_version(got) {
                    write!(
                        f,
                        " — the peer speaks wire version {peer}, this build requires \
                         version {WIRE_VERSION}; upgrade the older side"
                    )?;
                }
                Ok(())
            }
            WireError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of stream while expecting {expected}")
            }
            WireError::UnexpectedLine { expected, got } => {
                write!(f, "expected {expected}, got line `{got}`")
            }
            WireError::Field {
                field,
                value,
                reason,
            } => write!(f, "bad field `{field}` value `{value}`: {reason}"),
            WireError::Io { message } => write!(f, "wire read failed: {message}"),
            WireError::Timeout { waited_ms } => {
                write!(f, "no protocol line arrived within {waited_ms}ms")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A source of protocol lines; implemented for in-memory slices (tests,
/// merges) and buffered process pipes (the coordinator and worker loops).
pub trait LineSource {
    /// The next line, without its terminator; `None` at end of stream.
    fn next_line(&mut self) -> Result<Option<String>, WireError>;

    /// The connection's opening is over: lift its deadline.  Only an
    /// accepted socket has one; every other source ignores this.
    fn end_opening(&mut self) {}
}

/// [`LineSource`] over an in-memory slice of lines.
pub struct SliceLines<'a> {
    lines: &'a [String],
    pos: usize,
}

impl<'a> SliceLines<'a> {
    /// A source yielding `lines` in order.
    pub fn new(lines: &'a [String]) -> Self {
        SliceLines { lines, pos: 0 }
    }
}

impl LineSource for SliceLines<'_> {
    fn next_line(&mut self) -> Result<Option<String>, WireError> {
        let line = self.lines.get(self.pos).cloned();
        if line.is_some() {
            self.pos += 1;
        }
        Ok(line)
    }
}

/// [`LineSource`] over a buffered reader (a worker's stdin or the
/// coordinator's view of a worker's stdout).
pub struct IoLines<R: std::io::BufRead> {
    reader: R,
}

impl<R: std::io::BufRead> IoLines<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        IoLines { reader }
    }
}

impl<R: std::io::BufRead> LineSource for IoLines<R> {
    fn next_line(&mut self) -> Result<Option<String>, WireError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Ok(Some(line))
            }
            Err(e) => Err(WireError::Io {
                message: e.to_string(),
            }),
        }
    }
}

fn next_required<S: LineSource>(src: &mut S, expected: &'static str) -> Result<String, WireError> {
    src.next_line()?
        .ok_or(WireError::UnexpectedEof { expected })
}

/// Escape a string field: `\` → `\\`, tab → `\t`, newline → `\n`,
/// carriage return → `\r`.  The result contains neither tabs nor line
/// terminators, so it is safe inside a tab-separated protocol line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverse [`escape`].  Errors on a dangling backslash or unknown escape.
pub fn unescape(s: &str) -> Result<String, WireError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(WireError::Field {
                    field: "string",
                    value: s.to_string(),
                    reason: match other {
                        Some(c) => format!("unknown escape `\\{c}`"),
                        None => "dangling backslash".to_string(),
                    },
                })
            }
        }
    }
    Ok(out)
}

/// Encode an `f64` as the zero-padded hex of its bit pattern (exact,
/// bit-for-bit round trip — `format!`/`parse` would lose the payload of
/// NaNs and the last bits of some finite values).
pub fn encode_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decode an [`encode_f64`] field.
pub fn decode_f64(field: &'static str, s: &str) -> Result<f64, WireError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| WireError::Field {
            field,
            value: s.to_string(),
            reason: e.to_string(),
        })
}

fn parse_num<T: FromStr>(field: &'static str, s: &str) -> Result<T, WireError>
where
    T::Err: fmt::Display,
{
    s.parse().map_err(|e: T::Err| WireError::Field {
        field,
        value: s.to_string(),
        reason: e.to_string(),
    })
}

fn encode_opt_i64(v: Option<i64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

fn decode_opt_i64(field: &'static str, s: &str) -> Result<Option<i64>, WireError> {
    if s == "-" {
        Ok(None)
    } else {
        parse_num(field, s).map(Some)
    }
}

fn encode_opt_str(v: Option<&str>) -> String {
    match v {
        // The `=` prefix distinguishes `Some("-")` from `None`.
        Some(s) => format!("={}", escape(s)),
        None => "-".to_string(),
    }
}

fn decode_opt_str(field: &'static str, s: &str) -> Result<Option<String>, WireError> {
    match s.strip_prefix('=') {
        Some(rest) => Ok(Some(unescape(rest)?)),
        None if s == "-" => Ok(None),
        None => Err(WireError::Field {
            field,
            value: s.to_string(),
            reason: "expected `-` or `=`-prefixed string".to_string(),
        }),
    }
}

fn encode_opt_bounds(b: Option<Bounds>) -> String {
    match b {
        Some(b) => format!("{}..{}", b.lo, b.hi),
        None => "-".to_string(),
    }
}

fn decode_opt_bounds(field: &'static str, s: &str) -> Result<Option<Bounds>, WireError> {
    if s == "-" {
        return Ok(None);
    }
    let (lo, hi) = s.split_once("..").ok_or_else(|| WireError::Field {
        field,
        value: s.to_string(),
        reason: "expected `-` or `<lo>..<hi>`".to_string(),
    })?;
    Ok(Some(Bounds {
        lo: parse_num(field, lo)?,
        hi: parse_num(field, hi)?,
    }))
}

/// The stable wire name of a workload scale.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Reference => "reference",
    }
}

/// Parse a [`scale_name`] spelling.
pub fn parse_scale(s: &str) -> Result<Scale, WireError> {
    match s {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "reference" => Ok(Scale::Reference),
        _ => Err(WireError::Field {
            field: "scale",
            value: s.to_string(),
            reason: "expected `test`, `small` or `reference`".to_string(),
        }),
    }
}

fn parallelism_name(p: Parallelism) -> &'static str {
    if p.is_parallel() {
        "parallel"
    } else {
        "sequential"
    }
}

fn split_fields<'l>(
    line: &'l str,
    tag: &'static str,
    count: usize,
) -> Result<Vec<&'l str>, WireError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.first() != Some(&tag) || fields.len() != count + 1 {
        return Err(WireError::UnexpectedLine {
            expected: tag,
            got: line.to_string(),
        });
    }
    Ok(fields[1..].to_vec())
}

/// One unit of work the coordinator hands a worker: one benchmark run
/// under a contiguous chunk of the requested backend list.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSpec {
    /// Coordinator-assigned shard id (index into the shard plan).
    pub id: usize,
    /// Index of this backend chunk within the benchmark's chunks.
    pub chunk: usize,
    /// Workload scale to run at.
    pub scale: Scale,
    /// In-worker threading mode for the backend fan-out.
    pub parallelism: Parallelism,
    /// The benchmark to run.
    pub benchmark: String,
    /// The backends to run it under, in order.
    pub backends: Vec<SanitizerKind>,
}

/// A coordinator → worker message.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run a shard and reply with its result.
    Shard(ShardSpec),
    /// No more work; exit cleanly.
    Done,
}

/// Encode a [`Command`] as one protocol line.
pub fn encode_command(cmd: &Command) -> String {
    match cmd {
        Command::Done => "done".to_string(),
        Command::Shard(spec) => {
            let backends: Vec<&str> = spec.backends.iter().map(|k| k.name()).collect();
            format!(
                "shard\t{}\t{}\t{}\t{}\t{}\t{}",
                spec.id,
                spec.chunk,
                scale_name(spec.scale),
                parallelism_name(spec.parallelism),
                escape(&spec.benchmark),
                backends.join(",")
            )
        }
    }
}

/// Decode the next [`Command`]; `None` at end of stream (treated as
/// `done` by workers, so a dying coordinator never wedges a worker).
pub fn decode_command<S: LineSource>(src: &mut S) -> Result<Option<Command>, WireError> {
    let Some(line) = src.next_line()? else {
        return Ok(None);
    };
    if line == "done" {
        return Ok(Some(Command::Done));
    }
    let f = split_fields(&line, "shard", 6)?;
    let mut backends = Vec::new();
    for name in f[5].split(',').filter(|s| !s.is_empty()) {
        backends.push(
            name.parse::<SanitizerKind>()
                .map_err(|e| WireError::Field {
                    field: "backends",
                    value: name.to_string(),
                    reason: e.to_string(),
                })?,
        );
    }
    Ok(Some(Command::Shard(ShardSpec {
        id: parse_num("shard-id", f[0])?,
        chunk: parse_num("chunk", f[1])?,
        scale: parse_scale(f[2])?,
        parallelism: f[3]
            .parse()
            .map_err(|e: effective_san::ParseParallelismError| WireError::Field {
                field: "parallelism",
                value: f[3].to_string(),
                reason: e.to_string(),
            })?,
        benchmark: unescape(f[4])?,
        backends,
    })))
}

/// A worker → coordinator message.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A shard completed; the row carries the reports for the shard's
    /// backend chunk only.
    Result {
        /// The shard id being answered.
        id: usize,
        /// The chunk index (echoed back for merging).
        chunk: usize,
        /// The partial row (reports restricted to the shard's backends).
        row: SpecRow,
    },
    /// A shard failed inside the worker in a way the worker could report
    /// (the shard is retried like a crash, but with a better message).
    Error {
        /// The shard id being answered.
        id: usize,
        /// The rendered failure.
        message: String,
    },
}

/// Encode a [`Reply`] as protocol lines.
pub fn encode_reply(reply: &Reply) -> Vec<String> {
    match reply {
        Reply::Error { id, message } => {
            vec![format!("error\t{id}\t{}", escape(message))]
        }
        Reply::Result { id, chunk, row } => {
            let mut out = vec![format!("result\t{id}\t{chunk}")];
            encode_spec_row(row, &mut out);
            out.push(format!("end\t{id}"));
            out
        }
    }
}

/// Decode the next [`Reply`].
pub fn decode_reply<S: LineSource>(src: &mut S) -> Result<Reply, WireError> {
    let line = next_required(src, "a `result` or `error` reply")?;
    if let Ok(f) = split_fields(&line, "error", 2) {
        return Ok(Reply::Error {
            id: parse_num("shard-id", f[0])?,
            message: unescape(f[1])?,
        });
    }
    let f = split_fields(&line, "result", 2)?;
    let id: usize = parse_num("shard-id", f[0])?;
    let chunk: usize = parse_num("chunk", f[1])?;
    let row = decode_spec_row(src)?;
    let end = next_required(src, "an `end` trailer")?;
    let f = split_fields(&end, "end", 1)?;
    let end_id: usize = parse_num("shard-id", f[0])?;
    if end_id != id {
        return Err(WireError::UnexpectedLine {
            expected: "matching `end` trailer",
            got: end,
        });
    }
    Ok(Reply::Result { id, chunk, row })
}

/// A worker's capability advertisement, sent right after the handshake
/// (wire v4): what the coordinator may schedule onto it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Number of CPU cores the worker can fan backends out across.
    pub cores: usize,
    /// The sanitizer backends this worker's registry can build.
    pub backends: Vec<SanitizerKind>,
}

/// Encode a [`Hello`] as one protocol line.
pub fn encode_hello(hello: &Hello) -> String {
    let backends: Vec<&str> = hello.backends.iter().map(|k| k.name()).collect();
    format!("hello\t{}\t{}", hello.cores, backends.join(","))
}

/// Decode an [`encode_hello`] line.
pub fn decode_hello(line: &str) -> Result<Hello, WireError> {
    let f = split_fields(line, "hello", 2)?;
    let mut backends = Vec::new();
    for name in f[1].split(',').filter(|s| !s.is_empty()) {
        backends.push(
            name.parse::<SanitizerKind>()
                .map_err(|e| WireError::Field {
                    field: "hello-backends",
                    value: name.to_string(),
                    reason: e.to_string(),
                })?,
        );
    }
    Ok(Hello {
        cores: parse_num("hello-cores", f[0])?,
        backends,
    })
}

/// Encode a heartbeat line.  Workers emit these on a timer while a shard
/// is executing so a coordinator deadline can tell "slow" from "dead";
/// decoders skip them wherever they appear between protocol lines.
pub fn encode_heartbeat(seq: u64) -> String {
    format!("hb\t{seq}")
}

/// Whether a line is a heartbeat (and should be skipped by decoders).
pub fn is_heartbeat(line: &str) -> bool {
    line == "hb" || line.starts_with("hb\t")
}

/// Encode an `auth` line (wire v7).  A peer configured with a shared
/// token sends this immediately after its [`HANDSHAKE`] line, on every
/// connection class — worker, client and registration alike.
pub fn encode_auth(token: &str) -> String {
    format!("auth\t{}", escape(token))
}

/// Whether a line is an `auth` frame.
pub fn is_auth(line: &str) -> bool {
    line == "auth" || line.starts_with("auth\t")
}

/// Decode an [`encode_auth`] line back into the presented token.
pub fn decode_auth(line: &str) -> Result<String, WireError> {
    let f = split_fields(line, "auth", 1)?;
    unescape(f[0])
}

/// Encode an `authfail` rejection (wire v7).  The reason is structured
/// prose for the peer's error path; it must never echo a token.
pub fn encode_auth_reject(reason: &str) -> String {
    format!("authfail\t{}", escape(reason))
}

/// If the line is an `authfail` rejection, its reason.
pub fn parse_auth_reject(line: &str) -> Option<String> {
    let f = split_fields(line, "authfail", 1).ok()?;
    unescape(f[0]).ok()
}

/// Encode a `busy` admission-control reject (wire v7): the daemon's
/// pending-request or job-queue bound is hit, and the client should wait
/// `retry_after_ms` before retrying the whole request.
pub fn encode_busy(retry_after_ms: u64, message: &str) -> String {
    format!("busy\t{retry_after_ms}\t{}", escape(message))
}

/// If the line is a `busy` reject, decode its `(retry_after_ms, message)`.
pub fn parse_busy(line: &str) -> Option<Result<(u64, String), WireError>> {
    if line != "busy" && !line.starts_with("busy\t") {
        return None;
    }
    Some(
        split_fields(line, "busy", 2)
            .and_then(|f| Ok((parse_num::<u64>("retry-after-ms", f[0])?, unescape(f[1])?))),
    )
}

/// The wire-v7 token gate, the one place a presented token is checked:
/// the next line must be an [`encode_auth`] frame carrying `token`.
/// Anything else — a wrong or malformed token, another line, end of
/// stream, a failed or timed-out read — is a rejection with one of two
/// fixed reasons, so no rejection can echo a token.
pub fn auth_gate<S: LineSource>(src: &mut S, token: &str) -> Result<(), &'static str> {
    match src.next_line() {
        Ok(Some(line)) if is_auth(&line) => match decode_auth(&line) {
            Ok(presented) if presented == token => Ok(()),
            _ => Err("auth token mismatch"),
        },
        _ => Err("peer presented no auth token"),
    }
}

/// The first line after a connection's opening, under one rule for every
/// connection class: a stray `auth` frame (a token-bearing peer talking
/// to an open side) is skipped, and an `authfail` (the peer refused this
/// side) surfaces as [`OpeningError::Refused`].  `None` at end of stream.
pub fn first_line<S: LineSource>(src: &mut S) -> Result<Option<String>, OpeningError> {
    let mut line = src.next_line()?;
    if line.as_deref().is_some_and(is_auth) {
        line = src.next_line()?;
    }
    match line.as_deref().and_then(parse_auth_reject) {
        Some(reason) => Err(OpeningError::Refused(reason)),
        None => Ok(line),
    }
}

/// Why a connection's opening ended without a working session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpeningError {
    /// The stream failed, ended or timed out, or the peer spoke another
    /// wire version.
    Wire(WireError),
    /// The peer failed this side's [`auth_gate`] and was sent an
    /// `authfail` with this reason.
    Rejected(&'static str),
    /// The peer refused this side with an `authfail` carrying this reason.
    Refused(String),
}

impl fmt::Display for OpeningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpeningError::Wire(e) => write!(f, "{e}"),
            OpeningError::Rejected(reason) => write!(f, "peer failed authentication: {reason}"),
            OpeningError::Refused(reason) => write!(f, "peer rejected this connection: {reason}"),
        }
    }
}

impl From<WireError> for OpeningError {
    fn from(e: WireError) -> Self {
        OpeningError::Wire(e)
    }
}

/// A [`LineSource`] that replays one already-consumed line before
/// delegating to the underlying source — used to resume decoding after
/// peeking (a connection's [`first_line`], a daemon's first-line
/// dispatch).
pub struct PrependedLine<S: LineSource> {
    line: Option<String>,
    rest: S,
}

impl<S: LineSource> PrependedLine<S> {
    /// A source yielding `line` first (if any), then `rest`.
    pub fn new(line: Option<String>, rest: S) -> Self {
        PrependedLine { line, rest }
    }
}

impl<S: LineSource> LineSource for PrependedLine<S> {
    fn next_line(&mut self) -> Result<Option<String>, WireError> {
        match self.line.take() {
            Some(line) => Ok(Some(line)),
            None => self.rest.next_line(),
        }
    }
}

/// A client's sweep request to the `sweep serve` daemon: the same
/// parameters `sharded_spec_experiment` takes in-process.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// Workload scale to run at.
    pub scale: Scale,
    /// In-worker threading mode for the backend fan-out.
    pub parallelism: Parallelism,
    /// The benchmarks to run, in row order.
    pub benchmarks: Vec<String>,
    /// The backends to run each benchmark under, in report order.
    pub backends: Vec<SanitizerKind>,
}

/// Encode a [`SweepRequest`] as a header line plus one escaped `bench`
/// line per benchmark (names may contain arbitrary bytes; commas inside
/// a name must not split the list).
pub fn encode_request(request: &SweepRequest) -> Vec<String> {
    let backends: Vec<&str> = request.backends.iter().map(|k| k.name()).collect();
    let mut out = vec![format!(
        "request\t{}\t{}\t{}\t{}",
        scale_name(request.scale),
        parallelism_name(request.parallelism),
        request.benchmarks.len(),
        backends.join(",")
    )];
    for benchmark in &request.benchmarks {
        out.push(format!("bench\t{}", escape(benchmark)));
    }
    out
}

/// Decode an [`encode_request`] block; `None` at end of stream (a client
/// that connects and leaves without asking for anything).
pub fn decode_request<S: LineSource>(src: &mut S) -> Result<Option<SweepRequest>, WireError> {
    let Some(line) = src.next_line()? else {
        return Ok(None);
    };
    let f = split_fields(&line, "request", 4)?;
    let scale = parse_scale(f[0])?;
    let parallelism = f[1]
        .parse()
        .map_err(|e: effective_san::ParseParallelismError| WireError::Field {
            field: "parallelism",
            value: f[1].to_string(),
            reason: e.to_string(),
        })?;
    let n_bench: usize = parse_num("benchmark-count", f[2])?;
    let mut backends = Vec::new();
    for name in f[3].split(',').filter(|s| !s.is_empty()) {
        backends.push(
            name.parse::<SanitizerKind>()
                .map_err(|e| WireError::Field {
                    field: "backends",
                    value: name.to_string(),
                    reason: e.to_string(),
                })?,
        );
    }
    let mut benchmarks = Vec::with_capacity(n_bench.min(1024));
    for _ in 0..n_bench {
        let line = next_required(src, "a `bench` line")?;
        let f = split_fields(&line, "bench", 1)?;
        benchmarks.push(unescape(f[0])?);
    }
    Ok(Some(SweepRequest {
        scale,
        parallelism,
        benchmarks,
        backends,
    }))
}

/// Encode the daemon's request acknowledgement: how many rows the client
/// should expect to be streamed.
pub fn encode_accepted(rows: usize) -> String {
    format!("accepted\t{rows}")
}

/// Decode an [`encode_accepted`] line.
pub fn decode_accepted(line: &str) -> Result<usize, WireError> {
    let f = split_fields(line, "accepted", 1)?;
    parse_num("row-count", f[0])
}

/// One daemon → client message after a request was accepted: merged rows
/// stream back as they complete, closed by `Done` or `Failed`.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceEvent {
    /// One fully merged benchmark row, tagged with its index in the
    /// request's benchmark order (rows complete out of order).
    Row {
        /// Index into the request's benchmark list.
        index: usize,
        /// The merged row (reports in requested backend order).
        row: SpecRow,
    },
    /// The sweep completed; every row was streamed.
    Done {
        /// How many rows were streamed in total.
        rows: usize,
    },
    /// The sweep failed; no further rows will arrive.
    Failed {
        /// The rendered failure.
        message: String,
    },
}

/// Encode a [`ServiceEvent`] as protocol lines.
pub fn encode_service_event(event: &ServiceEvent) -> Vec<String> {
    match event {
        ServiceEvent::Done { rows } => vec![format!("sdone\t{rows}")],
        ServiceEvent::Failed { message } => vec![format!("sfail\t{}", escape(message))],
        ServiceEvent::Row { index, row } => {
            let mut out = vec![format!("srow\t{index}")];
            encode_spec_row(row, &mut out);
            out
        }
    }
}

/// Decode the next [`ServiceEvent`].
pub fn decode_service_event<S: LineSource>(src: &mut S) -> Result<ServiceEvent, WireError> {
    let line = next_required(src, "an `srow`, `sdone` or `sfail` event")?;
    if let Ok(f) = split_fields(&line, "sdone", 1) {
        return Ok(ServiceEvent::Done {
            rows: parse_num("row-count", f[0])?,
        });
    }
    if let Ok(f) = split_fields(&line, "sfail", 1) {
        return Ok(ServiceEvent::Failed {
            message: unescape(f[0])?,
        });
    }
    let f = split_fields(&line, "srow", 1)?;
    let index: usize = parse_num("row-index", f[0])?;
    let row = decode_spec_row(src)?;
    Ok(ServiceEvent::Row { index, row })
}

/// Live statistics for one worker slot of a `sweep serve` daemon (wire
/// v6): its queue claim, shard outcome counters, and the heartbeat-gap /
/// shard-latency histogram summaries, both in microseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// The worker's slot index in the fleet.
    pub slot: usize,
    /// The worker's address as the daemon dials it (dial-out slots) or
    /// saw it connect (registered slots).
    pub addr: String,
    /// Whether the slot is currently connected/serviceable.  Dial-out
    /// slots are always live (the daemon redials them forever);
    /// registered slots go dead when their worker departs.
    pub live: bool,
    /// Whether the slot joined via `--register-listen` (dial-in) rather
    /// than the daemon's static dial-out list.
    pub registered: bool,
    /// Whether the slot is running a shard right now.
    pub busy: bool,
    /// Queued jobs whose `(request, benchmark)` pair this slot claimed.
    pub queued: u64,
    /// Shards this slot completed successfully.
    pub completed: u64,
    /// Shard attempts this slot failed (retries and exhaustions alike).
    pub failed: u64,
    /// Jobs this slot stole from another slot's claimed pair.
    pub steals: u64,
    /// Arrival-gap summary of the worker's heartbeats, in µs.
    pub heartbeat_gap_us: HistSummary,
    /// Per-shard wall-latency summary on this slot, in µs.
    pub shard_latency_us: HistSummary,
}

/// Progress of one in-flight request on a `sweep serve` daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestProgress {
    /// The daemon-assigned request id.
    pub req_id: u64,
    /// How many benchmark rows the request asked for.
    pub benchmarks: u64,
    /// Total shard jobs the request planned.
    pub jobs_total: u64,
    /// Shard jobs delivered so far.
    pub jobs_done: u64,
    /// Shard jobs of this request still sitting on the global queue
    /// (its live queue depth; the remainder are in flight or done).
    pub jobs_queued: u64,
}

/// A `sweep serve` daemon's live statistics: global counters, one
/// [`WorkerStats`] per fleet slot, one [`RequestProgress`] per in-flight
/// request.  Reading the stats never perturbs scheduling — the frame is
/// a read-only snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs on the global queue (unclaimed and claimed alike).
    pub queued_jobs: u64,
    /// Client connections accepted since the daemon started.
    pub clients_total: u64,
    /// Sweep requests accepted since the daemon started.
    pub requests_total: u64,
    /// Requests that ended in a structured `sfail`.
    pub requests_failed: u64,
    /// Requests cancelled because their client vanished mid-stream.
    pub requests_cancelled: u64,
    /// Requests currently admitted and in flight (the bound that
    /// `--max-pending` enforces).
    pub pending_requests: u64,
    /// Requests turned away with a `busy` frame since the daemon
    /// started.
    pub rejected_busy: u64,
    /// Per-slot worker statistics, in slot order.
    pub workers: Vec<WorkerStats>,
    /// In-flight request progress, in request-id order.
    pub requests: Vec<RequestProgress>,
}

/// Encode a [`HistSummary`] as one comma-joined field
/// (`count,min,p50,p90,p99,max`).
fn encode_hist_summary(h: &HistSummary) -> String {
    format!(
        "{},{},{},{},{},{}",
        h.count, h.min, h.p50, h.p90, h.p99, h.max
    )
}

fn decode_hist_summary(field: &'static str, s: &str) -> Result<HistSummary, WireError> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 6 {
        return Err(WireError::Field {
            field,
            value: s.to_string(),
            reason: "expected 6 comma-joined counters".to_string(),
        });
    }
    Ok(HistSummary {
        count: parse_num(field, parts[0])?,
        min: parse_num(field, parts[1])?,
        p50: parse_num(field, parts[2])?,
        p90: parse_num(field, parts[3])?,
        p99: parse_num(field, parts[4])?,
        max: parse_num(field, parts[5])?,
    })
}

/// Encode a [`ServiceStats`] snapshot as a `stats` header, `wstat` and
/// `rstat` lines, and an `endstats` terminator.
pub fn encode_stats(stats: &ServiceStats) -> Vec<String> {
    let mut out = vec![format!(
        "stats\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        stats.queued_jobs,
        stats.clients_total,
        stats.requests_total,
        stats.requests_failed,
        stats.requests_cancelled,
        stats.pending_requests,
        stats.rejected_busy,
        stats.workers.len(),
        stats.requests.len()
    )];
    for w in &stats.workers {
        out.push(format!(
            "wstat\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            w.slot,
            escape(&w.addr),
            u8::from(w.live),
            u8::from(w.registered),
            u8::from(w.busy),
            w.queued,
            w.completed,
            w.failed,
            w.steals,
            encode_hist_summary(&w.heartbeat_gap_us),
            encode_hist_summary(&w.shard_latency_us),
        ));
    }
    for r in &stats.requests {
        out.push(format!(
            "rstat\t{}\t{}\t{}\t{}\t{}",
            r.req_id, r.benchmarks, r.jobs_total, r.jobs_done, r.jobs_queued
        ));
    }
    out.push("endstats".to_string());
    out
}

/// Decode an [`encode_stats`] block.
pub fn decode_stats<S: LineSource>(src: &mut S) -> Result<ServiceStats, WireError> {
    let line = next_required(src, "a `stats` header")?;
    let f = split_fields(&line, "stats", 9)?;
    let mut stats = ServiceStats {
        queued_jobs: parse_num("queued-jobs", f[0])?,
        clients_total: parse_num("clients-total", f[1])?,
        requests_total: parse_num("requests-total", f[2])?,
        requests_failed: parse_num("requests-failed", f[3])?,
        requests_cancelled: parse_num("requests-cancelled", f[4])?,
        pending_requests: parse_num("pending-requests", f[5])?,
        rejected_busy: parse_num("rejected-busy", f[6])?,
        workers: Vec::new(),
        requests: Vec::new(),
    };
    let n_workers: usize = parse_num("worker-count", f[7])?;
    let n_requests: usize = parse_num("request-count", f[8])?;
    for _ in 0..n_workers {
        let line = next_required(src, "a `wstat` line")?;
        let f = split_fields(&line, "wstat", 11)?;
        stats.workers.push(WorkerStats {
            slot: parse_num("slot", f[0])?,
            addr: unescape(f[1])?,
            live: f[2] == "1",
            registered: f[3] == "1",
            busy: f[4] == "1",
            queued: parse_num("queued", f[5])?,
            completed: parse_num("completed", f[6])?,
            failed: parse_num("failed", f[7])?,
            steals: parse_num("steals", f[8])?,
            heartbeat_gap_us: decode_hist_summary("heartbeat-gap", f[9])?,
            shard_latency_us: decode_hist_summary("shard-latency", f[10])?,
        });
    }
    for _ in 0..n_requests {
        let line = next_required(src, "an `rstat` line")?;
        let f = split_fields(&line, "rstat", 5)?;
        stats.requests.push(RequestProgress {
            req_id: parse_num("req-id", f[0])?,
            benchmarks: parse_num("benchmarks", f[1])?,
            jobs_total: parse_num("jobs-total", f[2])?,
            jobs_done: parse_num("jobs-done", f[3])?,
            jobs_queued: parse_num("jobs-queued", f[4])?,
        });
    }
    let end = next_required(src, "an `endstats` terminator")?;
    if end != "endstats" {
        return Err(WireError::UnexpectedLine {
            expected: "endstats",
            got: end,
        });
    }
    Ok(stats)
}

/// Append the encoding of a [`SpecRow`] (header line, then one report
/// block per report).
pub fn encode_spec_row(row: &SpecRow, out: &mut Vec<String>) {
    out.push(format!(
        "row\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        escape(&row.name),
        u8::from(row.cpp),
        encode_f64(row.paper_kilo_sloc),
        encode_f64(row.paper_type_checks_b),
        encode_f64(row.paper_bounds_checks_b),
        row.paper_issues,
        row.source_lines,
        row.reports.len()
    ));
    for report in &row.reports {
        encode_run_report(report, out);
    }
}

/// Decode a [`SpecRow`] block.
pub fn decode_spec_row<S: LineSource>(src: &mut S) -> Result<SpecRow, WireError> {
    let line = next_required(src, "a `row` header")?;
    let f = split_fields(&line, "row", 8)?;
    let n_reports: usize = parse_num("report-count", f[7])?;
    let mut reports = Vec::with_capacity(n_reports);
    let row = SpecRow {
        name: unescape(f[0])?,
        cpp: f[1] == "1",
        paper_kilo_sloc: decode_f64("paper-kilo-sloc", f[2])?,
        paper_type_checks_b: decode_f64("paper-type-checks", f[3])?,
        paper_bounds_checks_b: decode_f64("paper-bounds-checks", f[4])?,
        paper_issues: parse_num("paper-issues", f[5])?,
        source_lines: parse_num("source-lines", f[6])?,
        reports: Vec::new(),
    };
    for _ in 0..n_reports {
        reports.push(decode_run_report(src)?);
    }
    Ok(SpecRow { reports, ..row })
}

/// Append the encoding of a [`RunReport`] (header, `exec`, `checks`,
/// `errors` lines, then the per-kind counters and diagnostics).
pub fn encode_run_report(report: &RunReport, out: &mut Vec<String>) {
    out.push(format!(
        "report\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        report.sanitizer.name(),
        encode_opt_i64(report.result),
        encode_opt_str(report.vm_error.as_deref()),
        report.wall_time.as_nanos(),
        encode_f64(report.cost),
        report.peak_memory_bytes,
        encode_f64(report.legacy_check_fraction),
        report.static_checks,
    ));
    let e = &report.exec;
    out.push(format!(
        "exec\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        e.instructions,
        e.check_instructions,
        e.loads,
        e.stores,
        e.calls,
        e.allocations,
        e.frees,
        e.tier_promotions,
        e.fast_calls,
        e.checks_elided
    ));
    out.push(encode_san_stats(&report.checks));
    encode_error_stats(&report.errors, out);
    out.push(format!("diags\t{}", report.diagnostics.len()));
    for diag in &report.diagnostics {
        out.push(encode_diagnostic(diag));
    }
}

/// Decode a [`RunReport`] block.
pub fn decode_run_report<S: LineSource>(src: &mut S) -> Result<RunReport, WireError> {
    let line = next_required(src, "a `report` header")?;
    let f = split_fields(&line, "report", 8)?;
    let sanitizer: SanitizerKind =
        f[0].parse()
            .map_err(|e: san_api::ParseSanitizerKindError| WireError::Field {
                field: "sanitizer",
                value: f[0].to_string(),
                reason: e.to_string(),
            })?;
    let result = decode_opt_i64("result", f[1])?;
    let vm_error = decode_opt_str("vm-error", f[2])?;
    let wall_nanos: u64 = parse_num("wall-nanos", f[3])?;
    let cost = decode_f64("cost", f[4])?;
    let peak_memory_bytes: u64 = parse_num("peak-memory", f[5])?;
    let legacy_check_fraction = decode_f64("legacy-fraction", f[6])?;
    let static_checks: usize = parse_num("static-checks", f[7])?;

    let line = next_required(src, "an `exec` line")?;
    let f = split_fields(&line, "exec", 10)?;
    let exec = ExecStats {
        instructions: parse_num("instructions", f[0])?,
        check_instructions: parse_num("check-instructions", f[1])?,
        loads: parse_num("loads", f[2])?,
        stores: parse_num("stores", f[3])?,
        calls: parse_num("calls", f[4])?,
        allocations: parse_num("allocations", f[5])?,
        frees: parse_num("frees", f[6])?,
        tier_promotions: parse_num("tier-promotions", f[7])?,
        fast_calls: parse_num("fast-calls", f[8])?,
        checks_elided: parse_num("checks-elided", f[9])?,
    };

    let line = next_required(src, "a `checks` line")?;
    let checks = decode_san_stats(&line)?;
    let errors = decode_error_stats(src)?;

    let line = next_required(src, "a `diags` line")?;
    let f = split_fields(&line, "diags", 1)?;
    let n_diags: usize = parse_num("diag-count", f[0])?;
    let mut diagnostics = Vec::with_capacity(n_diags);
    for _ in 0..n_diags {
        let line = next_required(src, "a `diag` line")?;
        diagnostics.push(decode_diagnostic(&line)?);
    }

    Ok(RunReport {
        sanitizer,
        result,
        vm_error,
        exec,
        checks,
        errors,
        diagnostics,
        wall_time: Duration::from_nanos(wall_nanos),
        cost,
        peak_memory_bytes,
        legacy_check_fraction,
        static_checks,
    })
}

/// Encode [`SanStats`] as one `checks` line (16 counters, field order is
/// part of the wire format).
pub fn encode_san_stats(s: &SanStats) -> String {
    format!(
        "checks\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        s.type_checks,
        s.legacy_type_checks,
        s.failed_type_checks,
        s.bounds_checks,
        s.failed_bounds_checks,
        s.bounds_narrows,
        s.bounds_gets,
        s.bounds_table_loads,
        s.cast_checks,
        s.access_checks,
        s.typed_allocations,
        s.typed_frees,
        s.allocations,
        s.frees,
        s.check_cache_hits,
        s.check_cache_misses,
    )
}

/// Decode a `checks` line back into [`SanStats`].
pub fn decode_san_stats(line: &str) -> Result<SanStats, WireError> {
    let f = split_fields(line, "checks", 16)?;
    Ok(SanStats {
        type_checks: parse_num("type-checks", f[0])?,
        legacy_type_checks: parse_num("legacy-type-checks", f[1])?,
        failed_type_checks: parse_num("failed-type-checks", f[2])?,
        bounds_checks: parse_num("bounds-checks", f[3])?,
        failed_bounds_checks: parse_num("failed-bounds-checks", f[4])?,
        bounds_narrows: parse_num("bounds-narrows", f[5])?,
        bounds_gets: parse_num("bounds-gets", f[6])?,
        bounds_table_loads: parse_num("bounds-table-loads", f[7])?,
        cast_checks: parse_num("cast-checks", f[8])?,
        access_checks: parse_num("access-checks", f[9])?,
        typed_allocations: parse_num("typed-allocations", f[10])?,
        typed_frees: parse_num("typed-frees", f[11])?,
        allocations: parse_num("allocations", f[12])?,
        frees: parse_num("frees", f[13])?,
        check_cache_hits: parse_num("check-cache-hits", f[14])?,
        check_cache_misses: parse_num("check-cache-misses", f[15])?,
    })
}

/// Append the encoding of [`ErrorStats`]: an `errors` header, then the
/// per-kind event (`evk`) and issue (`isk`) counters in [`ErrorKind::all`]
/// order (HashMap iteration order must never reach the wire).
pub fn encode_error_stats(errors: &ErrorStats, out: &mut Vec<String>) {
    let evk: Vec<(ErrorKind, u64)> = ErrorKind::all()
        .into_iter()
        .filter_map(|k| errors.events_by_kind.get(&k).map(|&n| (k, n)))
        .collect();
    let isk: Vec<(ErrorKind, u64)> = ErrorKind::all()
        .into_iter()
        .filter_map(|k| errors.issues_by_kind.get(&k).map(|&n| (k, n)))
        .collect();
    out.push(format!(
        "errors\t{}\t{}\t{}\t{}",
        errors.total_events,
        errors.distinct_issues,
        evk.len(),
        isk.len()
    ));
    for (kind, n) in evk {
        out.push(format!("evk\t{}\t{}", kind.name(), n));
    }
    for (kind, n) in isk {
        out.push(format!("isk\t{}\t{}", kind.name(), n));
    }
}

fn decode_kind_count(line: &str, tag: &'static str) -> Result<(ErrorKind, u64), WireError> {
    let f = split_fields(line, tag, 2)?;
    let kind: ErrorKind =
        f[0].parse().map_err(
            |e: effective_runtime::ParseErrorKindError| WireError::Field {
                field: "error-kind",
                value: f[0].to_string(),
                reason: e.to_string(),
            },
        )?;
    Ok((kind, parse_num("count", f[1])?))
}

/// Decode an [`encode_error_stats`] block.
pub fn decode_error_stats<S: LineSource>(src: &mut S) -> Result<ErrorStats, WireError> {
    let line = next_required(src, "an `errors` line")?;
    let f = split_fields(&line, "errors", 4)?;
    let total_events: u64 = parse_num("total-events", f[0])?;
    let distinct_issues: u64 = parse_num("distinct-issues", f[1])?;
    let n_evk: usize = parse_num("event-kind-count", f[2])?;
    let n_isk: usize = parse_num("issue-kind-count", f[3])?;
    let mut events_by_kind = HashMap::new();
    for _ in 0..n_evk {
        let line = next_required(src, "an `evk` line")?;
        let (kind, n) = decode_kind_count(&line, "evk")?;
        events_by_kind.insert(kind, n);
    }
    let mut issues_by_kind = HashMap::new();
    for _ in 0..n_isk {
        let line = next_required(src, "an `isk` line")?;
        let (kind, n) = decode_kind_count(&line, "isk")?;
        issues_by_kind.insert(kind, n);
    }
    Ok(ErrorStats {
        total_events,
        distinct_issues,
        events_by_kind,
        issues_by_kind,
    })
}

/// Encode a [`Diagnostic`] as one `diag` line.
pub fn encode_diagnostic(d: &Diagnostic) -> String {
    format!(
        "diag\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        d.kind.name(),
        escape(&d.expected),
        escape(&d.observed),
        d.offset,
        encode_opt_bounds(d.bounds),
        escape(&d.location),
        escape(&d.detail),
    )
}

/// Decode an [`encode_diagnostic`] line.
pub fn decode_diagnostic(line: &str) -> Result<Diagnostic, WireError> {
    let f = split_fields(line, "diag", 7)?;
    let kind: ErrorKind =
        f[0].parse().map_err(
            |e: effective_runtime::ParseErrorKindError| WireError::Field {
                field: "error-kind",
                value: f[0].to_string(),
                reason: e.to_string(),
            },
        )?;
    Ok(Diagnostic {
        kind,
        expected: unescape(f[1])?,
        observed: unescape(f[2])?,
        offset: parse_num("offset", f[3])?,
        bounds: decode_opt_bounds("bounds", f[4])?,
        location: Arc::from(unescape(f[5])?.as_str()),
        detail: unescape(f[6])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_hostile_strings() {
        for s in [
            "",
            "plain",
            "a\tb",
            "line\nbreak",
            "back\\slash",
            "\r\n\t\\",
            "=-",
        ] {
            let escaped = escape(s);
            assert!(!escaped.contains('\t'));
            assert!(!escaped.contains('\n'));
            assert!(!escaped.contains('\r'));
            assert_eq!(unescape(&escaped).unwrap(), s);
        }
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn f64_encoding_is_exact_for_odd_values() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            0.1 + 0.2,
        ] {
            let decoded = decode_f64("v", &encode_f64(v)).unwrap();
            assert_eq!(decoded.to_bits(), v.to_bits());
        }
        let nan = decode_f64("v", &encode_f64(f64::NAN)).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn commands_round_trip() {
        let spec = ShardSpec {
            id: 7,
            chunk: 2,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "h264ref".to_string(),
            backends: vec![SanitizerKind::None, SanitizerKind::Mpx],
        };
        let lines = vec![
            encode_command(&Command::Shard(spec.clone())),
            encode_command(&Command::Done),
        ];
        let mut src = SliceLines::new(&lines);
        assert_eq!(
            decode_command(&mut src).unwrap(),
            Some(Command::Shard(spec))
        );
        assert_eq!(decode_command(&mut src).unwrap(), Some(Command::Done));
        assert_eq!(decode_command(&mut src).unwrap(), None);
    }

    #[test]
    fn error_reply_round_trips() {
        let reply = Reply::Error {
            id: 3,
            message: "worker\texploded\non purpose".to_string(),
        };
        let lines = encode_reply(&reply);
        assert_eq!(lines.len(), 1);
        let mut src = SliceLines::new(&lines);
        assert_eq!(decode_reply(&mut src).unwrap(), reply);
    }

    #[test]
    fn stats_round_trip() {
        let stats = ServiceStats {
            queued_jobs: 3,
            clients_total: 11,
            requests_total: 7,
            requests_failed: 1,
            requests_cancelled: 2,
            pending_requests: 1,
            rejected_busy: 4,
            workers: vec![WorkerStats {
                slot: 0,
                addr: "127.0.0.1:7601\twith\ttabs".to_string(),
                live: true,
                registered: true,
                busy: true,
                queued: 2,
                completed: 40,
                failed: 3,
                steals: 5,
                heartbeat_gap_us: HistSummary {
                    count: 9,
                    min: 400,
                    p50: 512,
                    p90: 1024,
                    p99: 2048,
                    max: 1900,
                },
                shard_latency_us: HistSummary::default(),
            }],
            requests: vec![RequestProgress {
                req_id: 6,
                benchmarks: 19,
                jobs_total: 38,
                jobs_done: 17,
                jobs_queued: 12,
            }],
        };
        let lines = encode_stats(&stats);
        assert_eq!(lines.last().map(String::as_str), Some("endstats"));
        let mut src = SliceLines::new(&lines);
        assert_eq!(decode_stats(&mut src).unwrap(), stats);
    }

    #[test]
    fn truncated_stats_are_loud() {
        let mut lines = encode_stats(&ServiceStats {
            workers: vec![WorkerStats {
                slot: 0,
                addr: "w".to_string(),
                live: true,
                registered: false,
                busy: false,
                queued: 0,
                completed: 0,
                failed: 0,
                steals: 0,
                heartbeat_gap_us: HistSummary::default(),
                shard_latency_us: HistSummary::default(),
            }],
            ..ServiceStats::default()
        });
        lines.truncate(1); // header promises a worker line that never comes
        let mut src = SliceLines::new(&lines);
        let err = decode_stats(&mut src).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn truncated_streams_are_loud() {
        let lines: Vec<String> = vec!["result\t0\t0".to_string()];
        let mut src = SliceLines::new(&lines);
        let err = decode_reply(&mut src).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn auth_and_busy_frames_round_trip() {
        let token = "s3cr\tet\\with\nhostile bytes";
        let line = encode_auth(token);
        assert!(is_auth(&line));
        assert_eq!(decode_auth(&line).unwrap(), token);

        let reject = encode_auth_reject("auth token mismatch");
        assert_eq!(
            parse_auth_reject(&reject).as_deref(),
            Some("auth token mismatch")
        );
        assert_eq!(parse_auth_reject("hello\t4\tnone"), None);

        let busy = encode_busy(350, "queue\tfull");
        assert_eq!(
            parse_busy(&busy).unwrap().unwrap(),
            (350, "queue\tfull".to_string())
        );
        assert!(parse_busy("sdone\t3").is_none());
    }

    #[test]
    fn auth_gate_accepts_matches_and_rejects_mismatches() {
        // Matching tokens pass.
        let lines = vec![encode_auth("s3cret")];
        let mut src = SliceLines::new(&lines);
        assert_eq!(auth_gate(&mut src, "s3cret"), Ok(()));

        // A wrong token is rejected with the mismatch reason.
        let lines = vec![encode_auth("wr0ng")];
        let mut src = SliceLines::new(&lines);
        let Err(reason) = auth_gate(&mut src, "s3cret") else {
            panic!("wrong token was accepted");
        };
        assert_eq!(reason, "auth token mismatch");
        assert!(
            !reason.contains("s3cret") && !reason.contains("wr0ng"),
            "reason must not echo tokens"
        );

        // No token at all is rejected before any capability exchange.
        let lines = vec![STATS_REQUEST.to_string()];
        let mut src = SliceLines::new(&lines);
        let Err(reason) = auth_gate(&mut src, "s3cret") else {
            panic!("tokenless peer was accepted by a token-bearing side");
        };
        assert_eq!(reason, "peer presented no auth token");

        // An open side replays a non-auth line and swallows an auth one.
        let lines = vec![STATS_REQUEST.to_string()];
        let mut src = SliceLines::new(&lines);
        let Ok(leftover) = first_line(&mut src) else {
            panic!("open side rejected a peer");
        };
        assert_eq!(leftover.as_deref(), Some(STATS_REQUEST));
        let lines = vec![encode_auth("whatever"), STATS_REQUEST.to_string()];
        let mut src = SliceLines::new(&lines);
        let Ok(leftover) = first_line(&mut src) else {
            panic!("open side rejected an authenticated peer");
        };
        assert_eq!(leftover.as_deref(), Some(STATS_REQUEST));
    }
}
