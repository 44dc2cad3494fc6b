//! The worker side of the coordinator/worker protocol.
//!
//! A worker is an ordinary OS process (the `sweep_worker` bin, or any bin
//! re-executed with `SAN_WORKER=1` — the `sweep` CLI does this) that
//! speaks the [`crate::wire`] protocol over stdin/stdout: handshake, then
//! a loop of `shard` commands answered with `result` blocks, until `done`
//! or end-of-input.
//!
//! Each shard runs through the ordinary in-process sweep
//! (`effective_san::spec_experiment` restricted to one benchmark and the
//! shard's backend chunk), so a worker's reports are — by the PR 3
//! determinism contract — bit-identical to the ones the coordinator would
//! have produced itself.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use effective_san::spec_experiment;
use san_api::SanitizerKind;

use crate::backoff::Backoff;
use crate::chaos::{Chaos, LineFate};
use crate::net::{heartbeat_interval, token_from_env};
use crate::wire::{self, Command, Hello, IoLines, LineSource, Reply, ShardSpec};

/// How long a token-bearing worker waits for the peer's `auth` frame
/// before rejecting it.  A compliant token-bearing peer sends its auth
/// in the same write batch as its handshake, so in the happy path this
/// deadline is never even approached; a tokenless peer sends nothing
/// after its handshake, and without the deadline both sides would sit
/// out each other's (much longer) silence budgets.
const AUTH_GATE_TIMEOUT: Duration = Duration::from_secs(5);

/// Name of the environment variable that switches a cooperating binary
/// into worker mode (checked by the `sweep` CLI before argument parsing).
pub const WORKER_ENV: &str = "SAN_WORKER";

/// Test hook: when set to a benchmark name, the worker aborts (exit code
/// [`CRASH_EXIT_CODE`]) instead of running a shard of that benchmark.  If
/// [`CRASH_ONCE_PATH_ENV`] is also set, the crash happens only while that
/// path does not exist (the worker creates it right before dying), so the
/// coordinator's retry succeeds — the shape of a transient worker failure.
pub const CRASH_BENCH_ENV: &str = "SWEEP_TEST_CRASH_BENCH";

/// Companion to [`CRASH_BENCH_ENV`]: flag-file path making the crash fire
/// once instead of on every attempt.
pub const CRASH_ONCE_PATH_ENV: &str = "SWEEP_TEST_CRASH_ONCE_PATH";

/// Test hook: when set to a benchmark name, the worker hangs forever
/// (sleeping, without writing anything) instead of running a shard of
/// that benchmark — the shape of a wedged worker, distinguishable from a
/// crash only by the coordinator's deadlines.  Combine with
/// [`HANG_ONCE_PATH_ENV`] for a transient hang.
pub const HANG_BENCH_ENV: &str = "SWEEP_TEST_HANG_BENCH";

/// Companion to [`HANG_BENCH_ENV`]: flag-file path making the hang fire
/// once instead of on every attempt.
pub const HANG_ONCE_PATH_ENV: &str = "SWEEP_TEST_HANG_ONCE_PATH";

/// Exit code used by the crash test hook (distinct from panics and clean
/// protocol exits, so tests can assert the failure mode they injected).
pub const CRASH_EXIT_CODE: i32 = 101;

fn maybe_crash(spec: &ShardSpec) {
    let Ok(bench) = std::env::var(CRASH_BENCH_ENV) else {
        return;
    };
    if bench != spec.benchmark {
        return;
    }
    match std::env::var(CRASH_ONCE_PATH_ENV) {
        Ok(path) => {
            if !std::path::Path::new(&path).exists() {
                // Leave the flag so the retry survives, then die mid-shard.
                let _ = std::fs::write(&path, b"crashed");
                std::process::exit(CRASH_EXIT_CODE);
            }
        }
        Err(_) => std::process::exit(CRASH_EXIT_CODE),
    }
}

fn maybe_hang(spec: &ShardSpec) {
    let Ok(bench) = std::env::var(HANG_BENCH_ENV) else {
        return;
    };
    if bench != spec.benchmark {
        return;
    }
    if let Ok(path) = std::env::var(HANG_ONCE_PATH_ENV) {
        if std::path::Path::new(&path).exists() {
            return;
        }
        let _ = std::fs::write(&path, b"hung");
    }
    // Wedge while holding the shard: the coordinator's shard/silence
    // deadline has to notice — nothing else will, because the process is
    // alive and (in TCP mode) still heartbeating.
    loop {
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The capability advertisement this worker sends after the handshake.
fn hello() -> Hello {
    Hello {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        backends: SanitizerKind::ALL.to_vec(),
    }
}

fn compute_shard(spec: &ShardSpec) -> Reply {
    maybe_crash(spec);
    maybe_hang(spec);
    // `spec_experiment` panics on unknown benchmarks / compile failures;
    // catching the panic turns it into a structured `error` reply the
    // coordinator can surface instead of a bare nonzero exit.
    let result = std::panic::catch_unwind(|| {
        spec_experiment(
            Some(&[spec.benchmark.as_str()]),
            spec.scale,
            &spec.backends,
            spec.parallelism,
        )
    });
    match result {
        Ok(experiment) => {
            let row = experiment
                .rows
                .into_iter()
                .next()
                .expect("one benchmark in, one row out");
            Reply::Result {
                id: spec.id,
                chunk: spec.chunk,
                row,
            }
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "worker panicked".to_string());
            Reply::Error {
                id: spec.id,
                message,
            }
        }
    }
}

/// The worker's side of the post-handshake token gate over a blocking
/// line source.  With a local token, the next line must be a matching
/// `auth` frame (`Err(reason)` otherwise — the caller sends the
/// structured `authfail` and exits).  Without one, nothing is read here:
/// the command loop tolerates a stray leading `auth` line instead, so a
/// tokenless worker never blocks waiting for a frame that may not come.
fn gate_peer<S: LineSource>(lines: &mut S, token: Option<&str>) -> Result<(), &'static str> {
    let Some(token) = token else {
        return Ok(());
    };
    match lines.next_line() {
        Ok(Some(line)) if wire::is_auth(&line) => match wire::decode_auth(&line) {
            Ok(presented) if presented == token => Ok(()),
            _ => Err("auth token mismatch"),
        },
        _ => Err("peer presented no auth token"),
    }
}

/// Dispose of pre-command stray lines: swallow a leading `auth` frame a
/// token-bearing peer sent to a tokenless worker, and surface a leading
/// `authfail` (the peer rejected *us*).  Returns the line to replay into
/// the command decoder, or `Err` with the exit code.
fn first_command_line<S: LineSource>(lines: &mut S) -> Result<Option<String>, i32> {
    match lines.next_line() {
        Ok(Some(line)) if wire::is_auth(&line) => Ok(None),
        Ok(Some(line)) => {
            if let Some(reason) = wire::parse_auth_reject(&line) {
                eprintln!("sweep_worker: peer rejected this worker: {reason}");
                return Err(2);
            }
            Ok(Some(line))
        }
        Ok(None) => Ok(None),
        Err(e) => {
            eprintln!("sweep_worker: {e}");
            Err(2)
        }
    }
}

/// One worker session over any line transport: everything the stdio
/// and TCP workers share.  The opening sends the handshake (plus this
/// worker's `auth` frame), checks the peer's version, gates its token
/// (`gate_timeout` arms a read deadline around the gate where the
/// transport has one), sends `hello`, and disposes of a stray first
/// line.  Then `shard` commands are answered until `done` or end of
/// input, with `computing` raised around each shard.  `send` writes one
/// block of lines.  Returns the process exit code.
fn serve_session<S: LineSource>(
    mut lines: S,
    token: Option<&str>,
    mut send: impl FnMut(&[String]) -> bool,
    mut gate_timeout: impl FnMut(Option<Duration>),
    computing: impl Fn(bool),
) -> i32 {
    let mut opening = vec![wire::HANDSHAKE.to_string()];
    opening.extend(token.map(wire::encode_auth));
    if !send(&opening) {
        return 2;
    }
    match lines.next_line() {
        Ok(Some(line)) if line == wire::HANDSHAKE => {}
        Ok(other) => {
            eprintln!(
                "sweep_worker: {}",
                wire::WireError::Version {
                    got: other.unwrap_or_else(|| "<eof>".to_string()),
                }
            );
            return 2;
        }
        Err(e) => {
            eprintln!("sweep_worker: {e}");
            return 2;
        }
    }
    if token.is_some() {
        gate_timeout(Some(AUTH_GATE_TIMEOUT));
        let gated = gate_peer(&mut lines, token);
        gate_timeout(None);
        if let Err(reason) = gated {
            let _ = send(&[wire::encode_auth_reject(reason)]);
            eprintln!("sweep_worker: rejected peer: {reason}");
            return 2;
        }
    }
    if !send(&[wire::encode_hello(&hello())]) {
        return 2;
    }
    let first = match first_command_line(&mut lines) {
        Ok(first) => first,
        Err(code) => return code,
    };
    let mut lines = wire::PrependedLine::new(first, lines);
    loop {
        let command = match wire::decode_command(&mut lines) {
            Ok(Some(command)) => command,
            // A vanished peer reads as end-of-input: exit cleanly (a
            // listener will accept its replacement).
            Ok(None) => return 0,
            Err(e) => {
                eprintln!("sweep_worker: {e}");
                return 2;
            }
        };
        match command {
            Command::Done => return 0,
            Command::Shard(spec) => {
                computing(true);
                let reply = compute_shard(&spec);
                computing(false);
                if !send(&wire::encode_reply(&reply)) {
                    return 2;
                }
            }
        }
    }
}

/// Serve the worker protocol over the given streams until `done` or
/// end-of-input, with the shared token from [`crate::net::TOKEN_ENV`].
/// Returns the process exit code (0 on a clean run, 2 on a protocol or
/// auth error — which is also printed to stderr).
pub fn serve<R: BufRead, W: Write>(input: R, output: W) -> i32 {
    serve_with_token(input, output, token_from_env())
}

/// [`serve`] with an explicit token.  The worker sends its handshake
/// (plus its own `auth` frame when it carries a token) eagerly, but
/// withholds its `hello` until the peer has passed the token gate — so
/// an unauthorized peer receives a structured `authfail` *before* any
/// capability exchange.
pub fn serve_with_token<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    token: Option<String>,
) -> i32 {
    let send = |block: &[String]| {
        block.iter().all(|line| writeln!(output, "{line}").is_ok()) && output.flush().is_ok()
    };
    serve_session(IoLines::new(input), token.as_deref(), send, |_| {}, |_| {})
}

/// Serve the worker protocol on this process's stdin/stdout — the entire
/// body of the `sweep_worker` bin and of `SAN_WORKER=1` re-exec mode.
pub fn run_stdio() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(stdin.lock(), stdout.lock())
}

/// Write a block of protocol lines atomically (one lock, one flush) so a
/// concurrent heartbeat can interleave between blocks but never inside
/// one.
///
/// This is the writer-side chaos seam ([`crate::chaos`]): with
/// `SWEEP_CHAOS` armed, a line may be delayed (a late heartbeat looks
/// exactly like a slow worker) or the connection severed after a random
/// prefix of the line — a mid-block, mid-line truncation from the
/// peer's point of view.
fn send_block(writer: &Mutex<TcpStream>, lines: &[String]) -> bool {
    let mut stream = writer.lock().expect("worker writer lock");
    for line in lines {
        match Chaos::global().map(|plan| plan.fate(line.len())) {
            Some(LineFate::Drop { keep_bytes }) => {
                let _ = stream.write_all(&line.as_bytes()[..keep_bytes]);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                return false;
            }
            Some(LineFate::DeliverAfter(wait)) => std::thread::sleep(wait),
            Some(LineFate::Deliver) | None => {}
        }
        if writeln!(stream, "{line}").is_err() {
            return false;
        }
    }
    stream.flush().is_ok()
}

/// Serve one coordinator connection over TCP with the token from
/// [`crate::net::TOKEN_ENV`]: the same protocol as [`serve`], plus
/// periodic heartbeats (cadence from [`crate::net::HEARTBEAT_ENV`])
/// emitted while a shard is executing so the peer's silence deadline can
/// tell a slow shard from a dead worker.
pub fn serve_tcp(stream: TcpStream) -> i32 {
    serve_tcp_with(stream, token_from_env())
}

/// [`serve_tcp`] with an explicit token.  Same gate ordering as
/// [`serve_with_token`]; the gate read is additionally bounded by
/// a 5-second timeout so a tokenless peer that (correctly) sends
/// nothing after its handshake is rejected promptly instead of both
/// sides sitting out their silence budgets.
pub fn serve_tcp_with(stream: TcpStream, token: Option<String>) -> i32 {
    let Ok(write_half) = stream.try_clone() else {
        return 2;
    };
    let writer = Arc::new(Mutex::new(write_half));
    // Heartbeat thread: ticks fast, beats at the configured cadence, and
    // only while a shard is actually in flight (`active`).
    let running = Arc::new(AtomicBool::new(true));
    let active = Arc::new(AtomicBool::new(false));
    let beat = {
        let writer = Arc::clone(&writer);
        let running = Arc::clone(&running);
        let active = Arc::clone(&active);
        std::thread::spawn(move || {
            let interval = heartbeat_interval();
            let mut seq = 0u64;
            let mut last = Instant::now() - interval;
            while running.load(Ordering::SeqCst) {
                if active.load(Ordering::SeqCst) && last.elapsed() >= interval {
                    if !send_block(&writer, &[wire::encode_heartbeat(seq)]) {
                        break;
                    }
                    seq += 1;
                    last = Instant::now();
                }
                std::thread::sleep(interval.min(Duration::from_millis(25)));
            }
        })
    };
    // The gate deadline is set through the write half, but applies to
    // the shared underlying socket.
    let gate_timeout = |timeout| {
        let _ = writer
            .lock()
            .expect("worker writer lock")
            .set_read_timeout(timeout);
    };
    let code = serve_session(
        IoLines::new(BufReader::new(stream)),
        token.as_deref(),
        |block: &[String]| send_block(&writer, block),
        gate_timeout,
        |on| active.store(on, Ordering::SeqCst),
    );
    running.store(false, Ordering::SeqCst);
    let _ = beat.join();
    code
}

/// Bind `addr` and serve coordinator connections, forever: the body of
/// `sweep_worker --listen <addr>`.  Prints `listening <addr>` (with the
/// resolved port, so `--listen 127.0.0.1:0` is scriptable) to stdout once
/// ready.  Returns only on a bind failure.
///
/// Connections are served concurrently (one thread each): a daemon keeps
/// its worker connections open while idle, and serially accepting would
/// leave any second coordinator stuck in the backlog behind it.  Every
/// shard runs in its own isolated simulated address space, so concurrent
/// peers never affect each other's bytes.
pub fn run_listener(addr: &str, token: Option<String>) -> i32 {
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("sweep_worker: cannot listen on {addr}: {e}");
            return 2;
        }
    };
    match listener.local_addr() {
        Ok(local) => println!("listening {local}"),
        Err(_) => println!("listening {addr}"),
    }
    let _ = std::io::stdout().flush();
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let token = token.clone();
                std::thread::spawn(move || serve_tcp_with(stream, token));
            }
            Err(e) => eprintln!("sweep_worker: accept failed: {e}"),
        }
    }
    0
}

/// Dial in to a `sweep serve --register-listen` daemon and serve it,
/// forever: the body of `sweep_worker --join <addr>`.  Prints
/// `joining <addr>` to stdout once, then keeps a session open to the
/// daemon, reconnecting on bounded exponential backoff + jitter
/// ([`Backoff`]) whenever the daemon is unreachable or the session ends
/// abnormally — so a restarting daemon reabsorbs its fleet without any
/// worker hot-spinning the connect path.
pub fn run_joiner(addr: &str, token: Option<String>) -> i32 {
    println!("joining {addr}");
    let _ = std::io::stdout().flush();
    let mut backoff = Backoff::from_env(0x4A01_4E52);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                if serve_tcp_with(stream, token.clone()) == 0 {
                    // A clean session (daemon drained us out politely):
                    // the next reconnect attempt starts fresh.
                    backoff.reset();
                }
            }
            Err(e) => eprintln!("sweep_worker: joining {addr}: {e}"),
        }
        std::thread::sleep(backoff.next_delay());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SliceLines;
    use effective_san::Parallelism;
    use san_api::SanitizerKind;
    use workloads::Scale;

    #[test]
    fn serve_answers_a_shard_and_exits_on_done() {
        let spec = ShardSpec {
            id: 0,
            chunk: 0,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "mcf".to_string(),
            backends: vec![SanitizerKind::None, SanitizerKind::EffectiveFull],
        };
        let input = format!(
            "{}\n{}\n{}\n",
            wire::HANDSHAKE,
            wire::encode_command(&Command::Shard(spec)),
            wire::encode_command(&Command::Done)
        );
        let mut output = Vec::new();
        let code = serve(input.as_bytes(), &mut output);
        assert_eq!(code, 0);

        let text = String::from_utf8(output).unwrap();
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        assert_eq!(lines[0], wire::HANDSHAKE);
        let advertised = wire::decode_hello(&lines[1]).expect("hello after handshake");
        assert_eq!(advertised.backends, SanitizerKind::ALL.to_vec());
        assert!(advertised.cores >= 1);
        let mut src = SliceLines::new(&lines[2..]);
        match wire::decode_reply(&mut src).unwrap() {
            Reply::Result { id, chunk, row } => {
                assert_eq!((id, chunk), (0, 0));
                assert_eq!(row.name, "mcf");
                assert_eq!(row.reports.len(), 2);
                assert_eq!(row.reports[0].sanitizer, SanitizerKind::None);
                assert_eq!(row.reports[1].sanitizer, SanitizerKind::EffectiveFull);
            }
            other => panic!("expected a result reply, got {other:?}"),
        }
    }

    #[test]
    fn unknown_benchmarks_become_error_replies_not_crashes() {
        let spec = ShardSpec {
            id: 4,
            chunk: 0,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "no-such-benchmark".to_string(),
            backends: vec![SanitizerKind::None],
        };
        let input = format!(
            "{}\n{}\ndone\n",
            wire::HANDSHAKE,
            wire::encode_command(&Command::Shard(spec))
        );
        let mut output = Vec::new();
        assert_eq!(serve(input.as_bytes(), &mut output), 0);
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let mut src = SliceLines::new(&lines[2..]);
        match wire::decode_reply(&mut src).unwrap() {
            Reply::Error { id, message } => {
                assert_eq!(id, 4);
                assert!(message.contains("no-such-benchmark"), "{message}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    #[test]
    fn bad_handshake_is_rejected() {
        let mut output = Vec::new();
        assert_eq!(serve("not-a-handshake\n".as_bytes(), &mut output), 2);
    }

    #[test]
    fn token_worker_rejects_wrong_and_missing_tokens_before_hello() {
        // Wrong token: structured authfail, no hello, no shard ran.
        let input = format!(
            "{}\n{}\ndone\n",
            wire::HANDSHAKE,
            wire::encode_auth("wrong")
        );
        let mut output = Vec::new();
        let code = serve_with_token(input.as_bytes(), &mut output, Some("right".to_string()));
        assert_eq!(code, 2);
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], wire::HANDSHAKE);
        assert!(wire::is_auth(lines[1]), "worker sends its own auth: {text}");
        assert_eq!(
            wire::parse_auth_reject(lines[2]).as_deref(),
            Some("auth token mismatch")
        );
        assert!(!text.contains("hello"), "no capability exchange: {text}");
        // The worker's own `auth` frame is the one legitimate carrier of
        // its token; no other line — in particular the rejection — may
        // echo it.
        for (i, line) in lines.iter().enumerate() {
            assert!(
                i == 1 || !line.contains("right"),
                "token leaked outside the auth frame: {text}"
            );
        }

        // Missing token: same gate, different reason.
        let input = format!("{}\ndone\n", wire::HANDSHAKE);
        let mut output = Vec::new();
        let code = serve_with_token(input.as_bytes(), &mut output, Some("right".to_string()));
        assert_eq!(code, 2);
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("authfail"), "{text}");
        assert!(!text.contains("hello"), "{text}");
    }

    #[test]
    fn matching_tokens_run_shards_and_stray_auth_is_tolerated() {
        let spec = ShardSpec {
            id: 1,
            chunk: 0,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "mcf".to_string(),
            backends: vec![SanitizerKind::None],
        };
        // Both sides carry the token.
        let input = format!(
            "{}\n{}\n{}\ndone\n",
            wire::HANDSHAKE,
            wire::encode_auth("tok\twith\ttabs"),
            wire::encode_command(&Command::Shard(spec.clone()))
        );
        let mut output = Vec::new();
        let code = serve_with_token(
            input.as_bytes(),
            &mut output,
            Some("tok\twith\ttabs".to_string()),
        );
        assert_eq!(code, 0);
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("hello"), "{text}");
        assert!(text.contains("result\t1\t0"), "{text}");

        // A token-bearing peer talking to a tokenless worker: the stray
        // auth line is swallowed, the shard still runs (the *peer* is
        // the side that will reject, from its own gate).
        let input = format!(
            "{}\n{}\n{}\ndone\n",
            wire::HANDSHAKE,
            wire::encode_auth("whatever"),
            wire::encode_command(&Command::Shard(spec))
        );
        let mut output = Vec::new();
        assert_eq!(serve_with_token(input.as_bytes(), &mut output, None), 0);
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("result\t1\t0"), "{text}");
    }
}
