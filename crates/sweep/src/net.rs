//! Connections of the sweep protocol: the transports that carry its
//! lines, the opening every connection starts with, the session a
//! scheduler holds with a worker ([`WorkerConn`]), and the streaming
//! client of the `sweep serve` daemon.
//!
//! A [`Transport`] carries protocol lines over either a worker process's
//! stdio pipes ([`PipeTransport`]) or a TCP socket ([`TcpTransport`]).
//! Its reads are pumped through a dedicated thread per connection
//! ([`LinePump`]) so deadlines work uniformly: blocking pipe reads have
//! no native timeout, and socket timeouts would tear lines apart
//! mid-read.
//!
//! Every connection opens in two halves.  The dialling half
//! ([`WorkerConn::establish`] and the clients) leads with the handshake
//! line and, holding a token, its wire-v7 `auth` frame, then requires the
//! peer's handshake.  The accepting half (a worker session, the daemon's
//! client port) does the same, checks the peer's token with
//! [`wire::auth_gate`] and reads the peer's first line under
//! [`wire::first_line`], all within one [`OPENING_TIMEOUT`].  The daemon's
//! registration port runs the dialling half on an accepted socket, under
//! the same deadline from the accept.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::process::{Child, ChildStdin};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use effective_san::{SpecExperiment, SpecRow};

use crate::backoff::Backoff;
use crate::chaos::{Chaos, LineFate};
use crate::wire::{
    self, Hello, IoLines, LineSource, OpeningError, Reply, ShardSpec, SweepRequest, WireError,
};

/// Name of the shared-auth-token environment variable.  When set, every
/// connection this process initiates or accepts carries/requires the
/// wire-v7 `auth` frame.  The token itself never reaches trace events,
/// stats output or error messages.
pub const TOKEN_ENV: &str = "SWEEP_TOKEN";

/// The shared auth token resolved from [`TOKEN_ENV`] (empty = unset).
pub fn token_from_env() -> Option<String> {
    std::env::var(TOKEN_ENV).ok().filter(|t| !t.is_empty())
}

/// The deadline on an accepted connection's whole opening, from the
/// accept: through a worker's `hello` (on a worker session or the
/// daemon's registration port), or through the request block on the
/// daemon's client port.  A compliant peer sends its opening in one
/// burst; a peer that never writes, trickles bytes, or (tokenless) faces
/// a token-bearing worker is closed when it expires, so it cannot hold a
/// thread, or `--shutdown`, hostage.
pub const OPENING_TIMEOUT: Duration = Duration::from_secs(5);

/// How often a TCP worker heartbeats while a shard computes, so the
/// peer's silence deadline can tell a slow shard from a dead worker.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// A reader thread pumping protocol lines into a channel, so the consumer
/// can apply per-read deadlines with `recv_timeout` regardless of whether
/// the underlying stream is a pipe or a socket.  The thread stamps each
/// line with the instant it received it, so a consumer that dequeues late
/// still sees when the line arrived ([`LinePump::last_arrival`]).
pub struct LinePump {
    rx: mpsc::Receiver<Result<Option<(String, Instant)>, WireError>>,
    finished: bool,
    last_arrival: Option<Instant>,
}

impl LinePump {
    /// Spawn the pump thread over a buffered reader.  The thread exits at
    /// end of stream, on a read error, or when the pump is dropped.
    ///
    /// This is one of the two chaos seams ([`crate::chaos`]): with
    /// `SWEEP_CHAOS` armed, a received line may be delivered late or the
    /// whole connection may be reported dropped mid-stream.
    pub fn spawn<R: BufRead + Send + 'static>(mut reader: R) -> LinePump {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name("sweep-line-pump".to_string())
            .spawn(move || loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => {
                        let _ = tx.send(Ok(None));
                        break;
                    }
                    Ok(_) => {
                        while line.ends_with('\n') || line.ends_with('\r') {
                            line.pop();
                        }
                        match Chaos::global().map(|plan| plan.fate(line.len())) {
                            Some(LineFate::Drop { .. }) => {
                                let _ = tx.send(Err(WireError::Io {
                                    message: "chaos: injected connection drop".to_string(),
                                }));
                                break;
                            }
                            Some(LineFate::DeliverAfter(wait)) => std::thread::sleep(wait),
                            Some(LineFate::Deliver) | None => {}
                        }
                        if tx.send(Ok(Some((line, Instant::now())))).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(WireError::Io {
                            message: e.to_string(),
                        }));
                        break;
                    }
                }
            })
            .expect("spawn line-pump thread");
        LinePump {
            rx,
            finished: false,
            last_arrival: None,
        }
    }

    /// When the pump thread received the line [`LinePump::recv`] returned
    /// last (`None` before the first line).
    pub fn last_arrival(&self) -> Option<Instant> {
        self.last_arrival
    }

    /// The next line; `None` at end of stream, [`WireError::Timeout`] when
    /// no line arrives within `timeout` (`None` = wait forever).
    pub fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<String>, WireError> {
        if self.finished {
            return Ok(None);
        }
        let received = match timeout {
            None => self.rx.recv().map_err(|_| None),
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => Some(t),
                mpsc::RecvTimeoutError::Disconnected => None,
            }),
        };
        match received {
            Ok(Ok(Some((line, arrived)))) => {
                self.last_arrival = Some(arrived);
                Ok(Some(line))
            }
            Ok(Ok(None)) | Err(None) => {
                // EOF, or the pump thread is gone: the stream is over.
                self.finished = true;
                Ok(None)
            }
            Ok(Err(e)) => {
                self.finished = true;
                Err(e)
            }
            Err(Some(t)) => Err(WireError::Timeout {
                waited_ms: t.as_millis() as u64,
            }),
        }
    }
}

/// A bidirectional line carrier for one protocol peer.
pub trait Transport: Send {
    /// Send one line (terminator added, flushed).
    fn send_line(&mut self, line: &str) -> Result<(), WireError>;
    /// Receive one line within `timeout` (`None` = block); `Ok(None)` at
    /// end of stream.
    fn recv_line(&mut self, timeout: Option<Duration>) -> Result<Option<String>, WireError>;
    /// When the line [`Transport::recv_line`] returned last arrived, if
    /// the transport stamps arrivals (`None` otherwise).
    fn last_arrival(&self) -> Option<Instant> {
        None
    }
    /// Fold peer-specific post-mortem detail (a child's exit status, the
    /// peer address) into an error description for the retry log.
    fn describe_death(&mut self, error: &WireError) -> String;
    /// Tear the connection down hard (kill the child / drop the socket).
    fn kill(&mut self);
    /// Close politely after a `done` command (wait for a child to exit,
    /// shut a socket down).
    fn finish(&mut self);
}

/// [`Transport`] over a worker child process's stdio pipes.
pub struct PipeTransport {
    child: Child,
    stdin: Option<ChildStdin>,
    pump: LinePump,
}

impl PipeTransport {
    /// Wrap a spawned worker whose stdin/stdout are piped.
    ///
    /// # Panics
    ///
    /// Panics if the child's stdin or stdout was not piped.
    pub fn new(mut child: Child) -> PipeTransport {
        let stdin = child.stdin.take().expect("worker stdin piped");
        let stdout = child.stdout.take().expect("worker stdout piped");
        PipeTransport {
            child,
            stdin: Some(stdin),
            pump: LinePump::spawn(BufReader::new(stdout)),
        }
    }
}

impl Transport for PipeTransport {
    fn send_line(&mut self, line: &str) -> Result<(), WireError> {
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(WireError::Io {
                message: "worker stdin already closed".to_string(),
            });
        };
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| WireError::Io {
                message: e.to_string(),
            })
    }

    fn recv_line(&mut self, timeout: Option<Duration>) -> Result<Option<String>, WireError> {
        self.pump.recv(timeout)
    }

    fn last_arrival(&self) -> Option<Instant> {
        self.pump.last_arrival()
    }

    /// EOF on the pipe can be observed a beat before the child becomes
    /// reapable, so poll `try_wait` briefly; a child that is genuinely
    /// still alive (e.g. it garbled a line but keeps running) falls
    /// through to the protocol error alone.
    fn describe_death(&mut self, error: &WireError) -> String {
        for _ in 0..50 {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return format!("worker exited with {status} mid-shard ({error})")
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        error.to_string()
    }

    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn finish(&mut self) {
        self.stdin = None;
        let _ = self.child.wait();
    }
}

/// [`Transport`] over a TCP connection to a `sweep_worker --listen`
/// process (or any peer speaking the protocol).
///
/// Every sweep socket sets `TCP_NODELAY` where it enters the protocol:
/// here for each dialled stream and the daemon's registration port, and
/// in `accept_socket` for the sockets a worker and the daemon's client
/// port serve.  Protocol lines are small writes that each wait on the
/// peer's answer.  Under Nagle's algorithm a small write behind
/// unacknowledged data waits for the peer's delayed ACK (about 40 ms),
/// which used to make the wire, not the shards, the cost of a request.
pub struct TcpTransport {
    stream: TcpStream,
    pump: LinePump,
    peer: String,
}

impl TcpTransport {
    /// Connect to `addr` within `timeout` and wrap the stream.
    pub fn connect(addr: &str, timeout: Option<Duration>) -> Result<TcpTransport, WireError> {
        let io_err = |e: std::io::Error| WireError::Io {
            message: format!("connecting to {addr}: {e}"),
        };
        let stream = match timeout {
            None => TcpStream::connect(addr).map_err(io_err)?,
            Some(t) => {
                let resolved = addr
                    .to_socket_addrs()
                    .map_err(io_err)?
                    .next()
                    .ok_or_else(|| WireError::Io {
                        message: format!("address `{addr}` resolved to nothing"),
                    })?;
                TcpStream::connect_timeout(&resolved, t).map_err(io_err)?
            }
        };
        TcpTransport::from_stream(stream, addr.to_string())
    }

    /// Wrap an already established stream (the daemon's registration
    /// port goes through here).
    pub fn from_stream(stream: TcpStream, peer: String) -> Result<TcpTransport, WireError> {
        stream.set_nodelay(true).map_err(|e| WireError::Io {
            message: format!("setting TCP_NODELAY on the stream to {peer}: {e}"),
        })?;
        let reader = stream.try_clone().map_err(|e| WireError::Io {
            message: format!("cloning stream to {peer}: {e}"),
        })?;
        Ok(TcpTransport {
            stream,
            pump: LinePump::spawn(BufReader::new(reader)),
            peer,
        })
    }
}

impl Transport for TcpTransport {
    fn send_line(&mut self, line: &str) -> Result<(), WireError> {
        writeln!(self.stream, "{line}")
            .and_then(|()| self.stream.flush())
            .map_err(|e| WireError::Io {
                message: format!("writing to {}: {e}", self.peer),
            })
    }

    fn recv_line(&mut self, timeout: Option<Duration>) -> Result<Option<String>, WireError> {
        self.pump.recv(timeout)
    }

    fn last_arrival(&self) -> Option<Instant> {
        self.pump.last_arrival()
    }

    fn describe_death(&mut self, error: &WireError) -> String {
        format!("connection to {}: {error}", self.peer)
    }

    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn finish(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Unblock the pump thread; a clone of the stream keeps the read
        // half open even after this handle is gone.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Protocol lines read from an accepted socket.  Until the opening ends
/// ([`LineSource::end_opening`]), every read — not every line — must
/// finish within [`OPENING_TIMEOUT`] of the accept, so a peer gains
/// nothing by trickling bytes.
pub(crate) type SocketLines = BufReader<OpeningRead>;

/// An accepted socket's read half, failing every read past `deadline`.
pub(crate) struct OpeningRead {
    stream: TcpStream,
    deadline: Option<Instant>,
}

impl Read for OpeningRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(deadline) = self.deadline else {
            return self.stream.read(buf);
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(buf) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                read => return read,
            }
        }
        Err(std::io::Error::new(
            ErrorKind::TimedOut,
            "the opening deadline passed",
        ))
    }
}

/// Take an accepted stream into the protocol: set `TCP_NODELAY`
/// ([`TcpTransport`] gives the reason), arm the opening deadline, and
/// split off the write half.
pub(crate) fn accept_socket(stream: TcpStream) -> std::io::Result<(SocketLines, TcpStream)> {
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    let deadline = Some(Instant::now() + OPENING_TIMEOUT);
    Ok((BufReader::new(OpeningRead { stream, deadline }), writer))
}

impl LineSource for SocketLines {
    fn next_line(&mut self) -> Result<Option<String>, WireError> {
        IoLines::new(self).next_line()
    }

    fn end_opening(&mut self) {
        let read = self.get_mut();
        read.deadline = None;
        let _ = read.stream.set_read_timeout(None);
    }
}

/// Require the peer's handshake line: another version, any other line,
/// or the end of the stream fails the opening.
fn read_handshake<S: LineSource>(lines: &mut S) -> Result<(), WireError> {
    match lines.next_line()? {
        Some(line) => wire::check_handshake(&line),
        None => Err(WireError::UnexpectedEof {
            expected: "the peer's handshake",
        }),
    }
}

/// The accepting half of a connection's opening, shared by a worker
/// session and the daemon's client port.  It sends `lead` (the
/// handshake, plus a worker's own `auth` frame) and requires the peer's
/// handshake.  Holding a `token`, it runs the peer through
/// [`wire::auth_gate`], answering a rejection with a structured
/// `authfail` before any capability exchange.  A worker then sends its
/// `hello`, which ends its opening: a daemon may idle between shards.
/// Last comes the peer's first line, under [`wire::first_line`].  The
/// daemon's client port reads nothing after the request block, so its
/// deadline is never lifted.
pub(crate) fn accept_opening<S: LineSource>(
    lines: &mut S,
    send: &mut impl FnMut(&[String]) -> bool,
    lead: &[String],
    token: Option<&str>,
    hello: Option<&Hello>,
) -> Result<Option<String>, OpeningError> {
    let gone = || {
        OpeningError::Wire(WireError::Io {
            message: "the peer stopped reading".to_string(),
        })
    };
    if !send(lead) {
        return Err(gone());
    }
    read_handshake(lines)?;
    if let Some(token) = token {
        if let Err(reason) = wire::auth_gate(lines, token) {
            send(&[wire::encode_auth_reject(reason)]);
            // Drain what the peer already wrote before closing: closing a
            // socket with unread data resets it, which could wipe the
            // frame out from under a peer still writing.
            while let Ok(Some(_)) = lines.next_line() {}
            return Err(OpeningError::Rejected(reason));
        }
    }
    if let Some(hello) = hello {
        if !send(&[wire::encode_hello(hello)]) {
            return Err(gone());
        }
        lines.end_opening();
    }
    wire::first_line(lines)
}

/// The dialling half of a connection's opening, shared by
/// [`WorkerConn::establish`] and the clients: lead with the handshake
/// and, holding a `token`, this side's `auth` frame, then require the
/// peer's handshake within `wait` and by `deadline`.
fn dial_opening(
    transport: &mut dyn Transport,
    token: Option<&str>,
    deadline: Option<Instant>,
    wait: Option<Duration>,
) -> Result<(), WireError> {
    transport.send_line(wire::HANDSHAKE)?;
    if let Some(token) = token {
        transport.send_line(&wire::encode_auth(token))?;
    }
    read_handshake(&mut DeadlineLines::new(transport, deadline, wait))
}

/// Why one attempt at running a shard on a worker failed — the retry
/// machinery treats the classes differently (a dead TCP address retires
/// its slot, a shard timeout has its own terminal error).
#[derive(Clone, Debug)]
pub enum AttemptError {
    /// The worker could not be spawned / connected at all.
    Spawn(String),
    /// The shard's overall deadline ([`crate::SweepConfig::shard_timeout`])
    /// expired with the worker still holding it.
    TimedOut(Duration),
    /// The worker died, went silent, garbled the protocol, or reported a
    /// structured error.
    Failed(String),
}

impl AttemptError {
    /// The rendered failure, for retry logs and terminal errors.
    pub fn message(&self) -> String {
        match self {
            AttemptError::Spawn(m) | AttemptError::Failed(m) => m.clone(),
            AttemptError::TimedOut(t) => {
                format!("shard timed out after {}ms", t.as_millis())
            }
        }
    }
}

/// Observes heartbeat arrival gaps on one connection: heartbeats are
/// still swallowed by [`DeadlineLines`], but the gap between consecutive
/// arrivals is recorded (in microseconds) before the line is dropped —
/// the raw signal behind the `stats` frame's per-worker heartbeat
/// summaries.  Arrivals are the transport's stamps
/// ([`Transport::last_arrival`]), so a reader that dequeues late records
/// the gaps the peer sent, not back-to-back reads.  Purely read-only:
/// attaching a probe never changes which lines a decoder sees.
pub struct HeartbeatProbe<'a> {
    /// Gap histogram the observed arrival gaps are recorded into (µs).
    pub gaps: &'a obs::Histogram,
    /// Arrival instant of the previous heartbeat on this connection
    /// (`None` before the first one; reset per shard by the caller).
    pub last: &'a mut Option<Instant>,
}

/// A [`LineSource`] over a transport that enforces two deadlines and
/// skips heartbeat lines: `deadline` is the absolute instant the whole
/// message must be complete by (the shard budget — heartbeats do *not*
/// extend it), `silence` is the per-line gap after which a worker that
/// sends nothing at all counts as dead (heartbeats *do* reset it).
pub struct DeadlineLines<'t> {
    transport: &'t mut dyn Transport,
    deadline: Option<Instant>,
    silence: Option<Duration>,
    probe: Option<HeartbeatProbe<'t>>,
}

impl<'t> DeadlineLines<'t> {
    /// Wrap `transport` with the given deadlines (either may be `None`).
    pub fn new(
        transport: &'t mut dyn Transport,
        deadline: Option<Instant>,
        silence: Option<Duration>,
    ) -> Self {
        DeadlineLines {
            transport,
            deadline,
            silence,
            probe: None,
        }
    }

    /// Attach an optional heartbeat-gap probe (builder style).
    pub fn with_probe(mut self, probe: Option<HeartbeatProbe<'t>>) -> Self {
        self.probe = probe;
        self
    }
}

impl LineSource for DeadlineLines<'_> {
    fn next_line(&mut self) -> Result<Option<String>, WireError> {
        loop {
            let remaining = self
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()));
            if remaining == Some(Duration::ZERO) {
                return Err(WireError::Timeout { waited_ms: 0 });
            }
            let per_read = match (remaining, self.silence) {
                (None, None) => None,
                (Some(r), None) => Some(r),
                (None, Some(s)) => Some(s),
                (Some(r), Some(s)) => Some(r.min(s)),
            };
            match self.transport.recv_line(per_read)? {
                Some(line) if wire::is_heartbeat(&line) => {
                    if let Some(probe) = self.probe.as_mut() {
                        let arrived = self.transport.last_arrival().unwrap_or_else(Instant::now);
                        if let Some(last) = probe.last.replace(arrived) {
                            probe
                                .gaps
                                .record(arrived.duration_since(last).as_micros() as u64);
                        }
                    }
                    continue;
                }
                other => return Ok(other),
            }
        }
    }
}

/// A live protocol session with one worker: transport + the capabilities
/// it advertised in its [`Hello`].  Both the in-process coordinator and
/// the `sweep serve` daemon drive workers through this type.
pub struct WorkerConn {
    transport: Box<dyn Transport>,
    /// The worker's capability advertisement (backend list, core count).
    pub hello: Hello,
    /// Heartbeat-gap histogram (µs) shared with the owner's telemetry;
    /// `None` = gaps are not observed on this connection.
    hb_gaps: Option<Arc<obs::Histogram>>,
    /// Arrival instant of the previous heartbeat, reset per shard.
    last_hb: Option<Instant>,
}

impl WorkerConn {
    /// Open a session on a fresh transport: the dialling half of the
    /// opening, then — holding a `token` — the worker's `auth` frame
    /// through [`wire::auth_gate`], then the worker's [`Hello`] under
    /// [`wire::first_line`].  A worker withholds its hello until it has
    /// verified this side, so that line is either the hello or a
    /// structured `authfail`.  `silence` bounds each read, so a wedged
    /// peer cannot hang the caller.  Error strings never contain the
    /// token.
    pub fn establish(
        transport: Box<dyn Transport>,
        silence: Option<Duration>,
        token: Option<&str>,
    ) -> Result<WorkerConn, String> {
        WorkerConn::establish_by(transport, None, silence, token)
    }

    /// [`WorkerConn::establish`], with the whole opening also due by
    /// `deadline`: the daemon's registration port passes
    /// [`OPENING_TIMEOUT`] from the accept, so a peer dialling in that
    /// idles or trickles is closed like any other accepted one.
    pub(crate) fn establish_by(
        mut transport: Box<dyn Transport>,
        deadline: Option<Instant>,
        silence: Option<Duration>,
        token: Option<&str>,
    ) -> Result<WorkerConn, String> {
        let opened = dial_opening(transport.as_mut(), token, deadline, silence)
            .map_err(OpeningError::from)
            .and_then(|()| {
                let mut lines = DeadlineLines::new(transport.as_mut(), deadline, silence);
                if let Some(token) = token {
                    wire::auth_gate(&mut lines, token).map_err(OpeningError::Rejected)?;
                }
                let hello = wire::first_line(&mut lines)?.ok_or(WireError::UnexpectedEof {
                    expected: "the worker's hello",
                })?;
                Ok(wire::decode_hello(&hello)?)
            });
        match opened {
            Ok(hello) => Ok(WorkerConn {
                transport,
                hello,
                hb_gaps: None,
                last_hb: None,
            }),
            Err(e) => {
                if let OpeningError::Rejected(reason) = e {
                    let _ = transport.send_line(&wire::encode_auth_reject(reason));
                }
                transport.kill();
                Err(e.to_string())
            }
        }
    }

    /// Record this connection's heartbeat arrival gaps (µs) into `gaps`
    /// from now on.  Observation is read-only: the reply stream a shard
    /// decodes is unchanged.
    pub fn observe_heartbeats(&mut self, gaps: Arc<obs::Histogram>) {
        self.hb_gaps = Some(gaps);
    }

    /// Send one shard and block until its reply, under the configured
    /// deadlines.  Any failure — I/O, protocol, worker death, silence, or
    /// the shard budget expiring — comes back as a classified
    /// [`AttemptError`] for the retry machinery.
    pub fn run_shard(
        &mut self,
        spec: &ShardSpec,
        shard_timeout: Option<Duration>,
        silence: Option<Duration>,
    ) -> Result<(usize, SpecRow), AttemptError> {
        self.transport
            .send_line(&wire::encode_command(&wire::Command::Shard(spec.clone())))
            .map_err(|e| AttemptError::Failed(format!("writing shard to worker: {e}")))?;
        let started = Instant::now();
        let deadline = shard_timeout.map(|t| started + t);
        // Gaps are per-shard: the idle stretch between shards is not a
        // heartbeat gap, so the previous-arrival marker resets here.
        self.last_hb = None;
        let probe = self.hb_gaps.as_deref().map(|gaps| HeartbeatProbe {
            gaps,
            last: &mut self.last_hb,
        });
        let mut lines =
            DeadlineLines::new(self.transport.as_mut(), deadline, silence).with_probe(probe);
        match wire::decode_reply(&mut lines) {
            Ok(Reply::Result { id, chunk, row }) if id == spec.id => Ok((chunk, row)),
            Ok(Reply::Result { id, .. }) => Err(AttemptError::Failed(format!(
                "worker answered shard {id}, expected {}",
                spec.id
            ))),
            Ok(Reply::Error { message, .. }) => {
                Err(AttemptError::Failed(format!("worker reported: {message}")))
            }
            Err(WireError::Timeout { .. }) => {
                if let Some(t) = shard_timeout {
                    if started.elapsed() >= t {
                        return Err(AttemptError::TimedOut(t));
                    }
                }
                let waited = silence.unwrap_or(Duration::ZERO);
                Err(AttemptError::Failed(format!(
                    "worker went silent: no line (not even a heartbeat) within {}ms",
                    waited.as_millis()
                )))
            }
            Err(e) => Err(AttemptError::Failed(self.transport.describe_death(&e))),
        }
    }

    /// Tear the session down hard (the worker is in an unknown state).
    pub fn kill(mut self) {
        self.transport.kill();
    }

    /// Close politely: send `done`, then let the transport wind down.
    pub fn shutdown(mut self) {
        let _ = self
            .transport
            .send_line(&wire::encode_command(&wire::Command::Done));
        self.transport.finish();
    }
}

/// Errors surfaced by the [`client_sweep`] streaming client.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// Connecting or speaking the protocol failed.
    Wire(WireError),
    /// The daemon rejected or aborted the sweep.
    Service(String),
    /// The stream ended without delivering every promised row.
    Incomplete(String),
    /// The daemon rejected this client's credentials (wire-v7 `authfail`
    /// — the carried reason never contains a token).
    Unauthorized(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Service(m) => write!(f, "sweep service failed: {m}"),
            ClientError::Incomplete(m) => write!(f, "incomplete stream: {m}"),
            ClientError::Unauthorized(m) => {
                write!(f, "sweep service rejected this client: {m}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<OpeningError> for ClientError {
    fn from(e: OpeningError) -> Self {
        match e {
            OpeningError::Wire(e) => ClientError::Wire(e),
            OpeningError::Rejected(reason) => ClientError::Unauthorized(reason.to_string()),
            OpeningError::Refused(reason) => ClientError::Unauthorized(reason),
        }
    }
}

/// Knobs for the streaming client: credentials and the two bounded retry
/// windows (connect refusals, `busy` admission rejects).
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Shared auth token; defaults to [`TOKEN_ENV`].
    pub token: Option<String>,
    /// Connection attempts before a refused/unreachable daemon is fatal
    /// (scripted launches race the daemon's bind; a few backed-off
    /// attempts absorb that).
    pub connect_attempts: u32,
    /// How many `busy` rejects to absorb (sleeping each frame's
    /// retry-after hint) before giving up.
    pub busy_retries: u32,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            token: token_from_env(),
            connect_attempts: 4,
            busy_retries: 8,
            connect_timeout: Duration::from_secs(30),
        }
    }
}

/// Connect to `addr`, retrying refused attempts under the shared
/// [`Backoff`] schedule (bounded by `options.connect_attempts`).
fn connect_with_retry(addr: &str, options: &ClientOptions) -> Result<TcpTransport, WireError> {
    let mut backoff = Backoff::standard(0x00C1_1E57);
    for _ in 1..options.connect_attempts.max(1) {
        match TcpTransport::connect(addr, Some(options.connect_timeout)) {
            Ok(transport) => return Ok(transport),
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    }
    TcpTransport::connect(addr, Some(options.connect_timeout))
}

/// Open a connection to the daemon and run the dialling half of the
/// opening.
fn client_connect(addr: &str, options: &ClientOptions) -> Result<TcpTransport, ClientError> {
    let mut transport = connect_with_retry(addr, options)?;
    dial_opening(&mut transport, options.token.as_deref(), None, None)?;
    Ok(transport)
}

/// The daemon's first reply line, within `wait`, under
/// [`wire::first_line`]: an `authfail` is [`ClientError::Unauthorized`].
fn reply_line(
    transport: &mut TcpTransport,
    wait: Option<Duration>,
    awaited: &str,
) -> Result<String, ClientError> {
    wire::first_line(&mut DeadlineLines::new(transport, None, wait))?.ok_or_else(|| {
        ClientError::Incomplete(format!("daemon closed the connection before {awaited}"))
    })
}

/// The two ways one submission attempt can end short of failure.
enum SweepOutcome {
    /// The daemon is saturated; retry the whole request after the hint.
    Busy {
        retry_after_ms: u64,
        message: String,
    },
    /// The sweep streamed to completion.
    Done(SpecExperiment),
}

/// Submit a sweep to a `sweep serve` daemon at `addr` and reassemble the
/// streamed rows into the canonical [`SpecExperiment`] shape.
///
/// `on_row` fires for every row as it arrives (in completion order, with
/// its index in the request's benchmark order), so callers can render
/// incrementally; the returned experiment has rows in request order and
/// is byte-identical to the in-process run by the service's SLA.
///
/// # Errors
///
/// [`ClientError::Wire`] on connection/protocol failures,
/// [`ClientError::Service`] when the daemon rejects or aborts the sweep,
/// [`ClientError::Incomplete`] if the stream closes early.
pub fn client_sweep<F: FnMut(usize, &SpecRow)>(
    addr: &str,
    request: &SweepRequest,
    on_row: F,
) -> Result<SpecExperiment, ClientError> {
    client_sweep_with(addr, &ClientOptions::default(), request, on_row)
}

/// [`client_sweep`] with explicit [`ClientOptions`]: auth token, bounded
/// connect retries against a daemon that has not bound yet, and `busy`
/// retry-after honoring when the daemon sheds load.
pub fn client_sweep_with<F: FnMut(usize, &SpecRow)>(
    addr: &str,
    options: &ClientOptions,
    request: &SweepRequest,
    mut on_row: F,
) -> Result<SpecExperiment, ClientError> {
    let mut busy_left = options.busy_retries;
    loop {
        match sweep_once(addr, options, request, &mut on_row)? {
            SweepOutcome::Done(experiment) => return Ok(experiment),
            SweepOutcome::Busy {
                retry_after_ms,
                message,
            } => {
                if busy_left == 0 {
                    return Err(ClientError::Service(format!(
                        "daemon still busy after {} retries: {message}",
                        options.busy_retries
                    )));
                }
                busy_left -= 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(5_000)));
            }
        }
    }
}

/// One full submission attempt (fresh connection, fresh request).
fn sweep_once<F: FnMut(usize, &SpecRow)>(
    addr: &str,
    options: &ClientOptions,
    request: &SweepRequest,
    mut on_row: F,
) -> Result<SweepOutcome, ClientError> {
    let mut transport = client_connect(addr, options)?;
    let sent = wire::encode_request(request)
        .iter()
        .try_for_each(|line| transport.send_line(line));
    // The daemon may have rejected this connection (authfail, busy) and
    // closed while the request was still being written; the structured
    // frame beats the raw broken pipe when it survived.
    let wait = sent.is_err().then_some(Duration::from_secs(5));
    let reply = reply_line(&mut transport, wait, "accepting the request");
    let line = match (sent, reply) {
        (_, Err(ClientError::Unauthorized(reason))) => {
            return Err(ClientError::Unauthorized(reason))
        }
        (Ok(()), reply) => reply?,
        (Err(_), Ok(line)) if wire::parse_busy(&line).is_some() => line,
        (Err(e), _) => return Err(e.into()),
    };
    if let Some(busy) = wire::parse_busy(&line) {
        let (retry_after_ms, message) = busy?;
        return Ok(SweepOutcome::Busy {
            retry_after_ms,
            message,
        });
    }
    if line.starts_with("sfail\t") {
        let lines = vec![line];
        let mut src = wire::SliceLines::new(&lines);
        match wire::decode_service_event(&mut src)? {
            wire::ServiceEvent::Failed { message } => return Err(ClientError::Service(message)),
            _ => unreachable!("sfail lines decode to Failed"),
        }
    }
    let accepted = wire::decode_accepted(&line)?;
    let mut rows: Vec<Option<SpecRow>> = vec![None; accepted];
    let mut lines = DeadlineLines::new(&mut transport, None, None);
    loop {
        match wire::decode_service_event(&mut lines)? {
            wire::ServiceEvent::Row { index, row } => {
                if index >= accepted {
                    return Err(ClientError::Incomplete(format!(
                        "row index {index} out of range (accepted {accepted} rows)"
                    )));
                }
                on_row(index, &row);
                rows[index] = Some(row);
            }
            wire::ServiceEvent::Failed { message } => return Err(ClientError::Service(message)),
            wire::ServiceEvent::Done { .. } => break,
        }
    }
    let mut out = Vec::with_capacity(accepted);
    for (index, row) in rows.into_iter().enumerate() {
        match row {
            Some(row) => out.push(row),
            None => {
                return Err(ClientError::Incomplete(format!(
                    "daemon finished without streaming row {index}"
                )))
            }
        }
    }
    Ok(SweepOutcome::Done(SpecExperiment {
        scale: request.scale,
        rows: out,
        sanitizers: request.backends.clone(),
    }))
}

/// Query a `sweep serve` daemon's live statistics: handshake, send the
/// bare [`wire::STATS_REQUEST`] line instead of a request block, decode
/// the `stats`/`wstat`/`rstat` reply.  Read-only — issuing it never
/// perturbs the daemon's scheduling or any in-flight request.
///
/// # Errors
///
/// [`ClientError::Wire`] on connection/protocol failures,
/// [`ClientError::Incomplete`] when the daemon hangs up early.
pub fn client_stats(addr: &str) -> Result<wire::ServiceStats, ClientError> {
    client_stats_with(addr, &ClientOptions::default())
}

/// [`client_stats`] with explicit [`ClientOptions`].
pub fn client_stats_with(
    addr: &str,
    options: &ClientOptions,
) -> Result<wire::ServiceStats, ClientError> {
    let mut transport = client_connect(addr, options)?;
    transport.send_line(wire::STATS_REQUEST)?;
    let first = reply_line(&mut transport, None, "answering the stats query")?;
    let lines = DeadlineLines::new(&mut transport, None, None);
    let mut lines = wire::PrependedLine::new(Some(first), lines);
    Ok(wire::decode_stats(&mut lines)?)
}

/// Ask a `sweep serve` daemon to shut down gracefully: it acknowledges
/// with [`wire::SHUTDOWN_ACK`], stops accepting new requests, drains
/// every in-flight job to its client, and exits 0.  Token-gated like any
/// other client connection.
///
/// # Errors
///
/// [`ClientError::Unauthorized`] when the daemon carries a token this
/// client lacks; [`ClientError::Wire`] / [`ClientError::Incomplete`] on
/// transport trouble.
pub fn client_shutdown(addr: &str, options: &ClientOptions) -> Result<(), ClientError> {
    let mut transport = client_connect(addr, options)?;
    transport.send_line(wire::SHUTDOWN_REQUEST)?;
    let wait = Some(Duration::from_secs(30));
    match reply_line(&mut transport, wait, "acknowledging shutdown")? {
        line if line == wire::SHUTDOWN_ACK => Ok(()),
        line => Err(ClientError::Wire(WireError::UnexpectedLine {
            expected: "a `shutdown-ok` acknowledgement",
            got: line,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn line_pump_times_out_then_delivers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(120));
            writeln!(stream, "late-line").expect("write");
        });
        let mut transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let err = transport
            .recv_line(Some(Duration::from_millis(10)))
            .expect_err("first read must time out");
        assert!(matches!(err, WireError::Timeout { .. }), "{err}");
        let line = transport
            .recv_line(Some(Duration::from_secs(5)))
            .expect("second read");
        assert_eq!(line.as_deref(), Some("late-line"));
        writer.join().expect("writer thread");
    }

    #[test]
    fn dialled_and_accepted_transports_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dialled = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let (stream, peer) = listener.accept().expect("accept");
        let accepted = TcpTransport::from_stream(stream, peer.to_string()).expect("wrap");
        for (how, transport) in [("connect", &dialled), ("from_stream", &accepted)] {
            assert!(
                transport.stream.nodelay().expect("read TCP_NODELAY"),
                "a transport built through {how} must set TCP_NODELAY"
            );
        }
    }

    #[test]
    fn establish_rejects_version_skew_with_a_diagnosable_message() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let imposter = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // A stale v2 worker: right greeting shape, wrong version.
            writeln!(stream, "effective-san-sweep-wire 2").expect("write");
            let mut sink = String::new();
            let _ = BufReader::new(stream).read_line(&mut sink);
        });
        let transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let err = WorkerConn::establish(Box::new(transport), Some(Duration::from_secs(5)), None)
            .err()
            .expect("a v2 worker must be rejected");
        assert!(err.contains("version 2"), "{err}");
        assert!(err.contains(&wire::WIRE_VERSION.to_string()), "{err}");
        imposter.join().expect("imposter thread");
    }

    #[test]
    fn heartbeat_probe_records_gaps_without_changing_lines() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            for seq in 0..3u64 {
                writeln!(stream, "{}", wire::encode_heartbeat(seq)).expect("write");
                std::thread::sleep(Duration::from_millis(10));
            }
            writeln!(stream, "data-line").expect("write");
        });
        let mut transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let gaps = obs::Histogram::new();
        let mut last = None;
        let mut lines = DeadlineLines::new(&mut transport, None, Some(Duration::from_secs(5)))
            .with_probe(Some(HeartbeatProbe {
                gaps: &gaps,
                last: &mut last,
            }));
        // The probe must not change what the decoder sees: heartbeats
        // are still skipped, the data line still comes through.
        assert_eq!(
            lines.next_line().expect("line").as_deref(),
            Some("data-line")
        );
        let summary = gaps.snapshot().summary();
        assert_eq!(summary.count, 2, "3 heartbeats → 2 arrival gaps");
        assert!(
            summary.min >= 1_000,
            "10ms apart → gaps of at least 1ms, got {summary:?}"
        );
        writer.join().expect("writer thread");
    }

    #[test]
    fn heartbeat_gaps_are_arrival_gaps_for_a_late_reader() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            for seq in 0..3u64 {
                writeln!(stream, "{}", wire::encode_heartbeat(seq)).expect("write");
                std::thread::sleep(Duration::from_millis(20));
            }
            writeln!(stream, "data-line").expect("write");
        });
        let mut transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        // Every heartbeat has arrived before the reader first looks, so
        // it dequeues all three back to back.
        std::thread::sleep(Duration::from_millis(100));
        let gaps = obs::Histogram::new();
        let mut last = None;
        let mut lines = DeadlineLines::new(&mut transport, None, Some(Duration::from_secs(5)))
            .with_probe(Some(HeartbeatProbe {
                gaps: &gaps,
                last: &mut last,
            }));
        assert_eq!(
            lines.next_line().expect("line").as_deref(),
            Some("data-line")
        );
        let summary = gaps.snapshot().summary();
        assert_eq!(summary.count, 2, "3 heartbeats → 2 arrival gaps");
        assert!(
            summary.min >= 10_000,
            "sent 20ms apart → arrival gaps of at least 10ms, got {summary:?}"
        );
        writer.join().expect("writer thread");
    }

    #[test]
    fn deadline_lines_skip_heartbeats_but_not_the_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let chatterbox = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // Heartbeats forever, never a data line.
            for seq in 0..200u64 {
                if writeln!(stream, "{}", wire::encode_heartbeat(seq)).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut transport = TcpTransport::connect(&addr.to_string(), Some(Duration::from_secs(5)))
            .expect("connect");
        let deadline = Instant::now() + Duration::from_millis(100);
        let mut lines =
            DeadlineLines::new(&mut transport, Some(deadline), Some(Duration::from_secs(5)));
        let started = Instant::now();
        let err = lines.next_line().expect_err("budget must expire");
        assert!(matches!(err, WireError::Timeout { .. }), "{err}");
        assert!(
            started.elapsed() >= Duration::from_millis(90),
            "deadline fired early: {:?}",
            started.elapsed()
        );
        drop(transport);
        chatterbox.join().expect("chatterbox thread");
    }
}
