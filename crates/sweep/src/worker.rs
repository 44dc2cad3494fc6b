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
//! shard's backend chunk), so a worker's reports are — by the
//! determinism contract — bit-identical to the ones the coordinator would
//! have produced itself.

use std::io::{BufRead, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use effective_san::spec_experiment;
use san_api::SanitizerKind;

use crate::backoff::Backoff;
use crate::chaos::{Chaos, LineFate};
use crate::net::{accept_opening, accept_socket, token_from_env, HEARTBEAT_INTERVAL};
use crate::wire::{self, Command, Hello, IoLines, LineSource, Reply, ShardSpec};

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

/// Whether a test hook fires on `spec`: `bench_env` names its benchmark
/// and, when `once_env` names a flag file, the flag does not exist yet
/// (it is created here, so the retry survives).
fn hook_fires(spec: &ShardSpec, bench_env: &str, once_env: &str) -> bool {
    if std::env::var(bench_env).ok().as_deref() != Some(spec.benchmark.as_str()) {
        return false;
    }
    match std::env::var(once_env) {
        Ok(path) if std::path::Path::new(&path).exists() => false,
        Ok(path) => {
            let _ = std::fs::write(&path, b"fired");
            true
        }
        Err(_) => true,
    }
}

fn compute_shard(spec: &ShardSpec) -> Reply {
    if hook_fires(spec, CRASH_BENCH_ENV, CRASH_ONCE_PATH_ENV) {
        std::process::exit(CRASH_EXIT_CODE);
    }
    if hook_fires(spec, HANG_BENCH_ENV, HANG_ONCE_PATH_ENV) {
        // Wedge while holding the shard: the coordinator's shard/silence
        // deadline has to notice — nothing else will, because the process
        // is alive and (in TCP mode) still heartbeating.
        loop {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
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

/// One worker session over any line transport: everything the stdio
/// and TCP workers share.  The opening is the accepting half
/// ([`accept_opening`]), ending at this worker's `hello`.  Then `shard`
/// commands are answered until `done` or end of input.  Shards compute on
/// a thread of the session's own, so this thread stays its one writer:
/// `send` writes each reply and, with `heartbeat` set, a heartbeat at
/// that cadence while a shard computes.  Returns the process exit code.
fn serve_session<S: LineSource>(
    mut lines: S,
    token: Option<&str>,
    mut send: impl FnMut(&[String]) -> bool,
    heartbeat: Option<Duration>,
) -> i32 {
    let mut lead = vec![wire::HANDSHAKE.to_string()];
    lead.extend(token.map(wire::encode_auth));
    let hello = Hello {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        backends: SanitizerKind::ALL.to_vec(),
    };
    let first = match accept_opening(&mut lines, &mut send, &lead, token, Some(&hello)) {
        Ok(first) => first,
        Err(e) => {
            eprintln!("sweep_worker: {e}");
            return 2;
        }
    };
    let mut lines = wire::PrependedLine::new(first, lines);
    // Without a heartbeat the wait never times out: `recv_timeout` waits
    // indefinitely when the deadline cannot be represented.
    let wait = heartbeat.unwrap_or(Duration::MAX);
    std::thread::scope(|scope| {
        let (shards, shard_rx) = mpsc::channel::<ShardSpec>();
        let (reply_tx, replies) = mpsc::channel();
        scope.spawn(move || {
            for spec in shard_rx {
                let _ = reply_tx.send(wire::encode_reply(&compute_shard(&spec)));
            }
        });
        loop {
            let spec = match wire::decode_command(&mut lines) {
                Ok(Some(Command::Shard(spec))) => spec,
                // A vanished peer reads as end-of-input: exit cleanly (a
                // listener will accept its replacement).
                Ok(Some(Command::Done) | None) => return 0,
                Err(e) => {
                    eprintln!("sweep_worker: {e}");
                    return 2;
                }
            };
            let _ = shards.send(spec);
            let mut seq = 0;
            let reply = loop {
                match replies.recv_timeout(wait) {
                    Ok(reply) => break reply,
                    Err(mpsc::RecvTimeoutError::Timeout)
                        if send(&[wire::encode_heartbeat(seq)]) =>
                    {
                        seq += 1
                    }
                    Err(_) => return 2,
                }
            };
            if !send(&reply) {
                return 2;
            }
        }
    })
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
    serve_session(IoLines::new(input), token.as_deref(), send, None)
}

/// Serve the worker protocol on this process's stdin/stdout — the entire
/// body of the `sweep_worker` bin and of `SAN_WORKER=1` re-exec mode.
pub fn run_stdio() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(stdin.lock(), stdout.lock())
}

/// Write a block of protocol lines to a worker's socket, one flush per
/// block.
///
/// This is the writer-side chaos seam ([`crate::chaos`]): with
/// `SWEEP_CHAOS` armed, a line may be delayed (a late heartbeat looks
/// exactly like a slow worker) or the connection severed after a random
/// prefix of the line — a mid-block, mid-line truncation from the
/// peer's point of view.
fn send_block(mut stream: &TcpStream, lines: &[String]) -> bool {
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

/// Serve one coordinator connection over TCP: the protocol of
/// [`serve_with_token`], with the whole opening due within
/// [`crate::net::OPENING_TIMEOUT`] of the accept and a heartbeat every
/// [`HEARTBEAT_INTERVAL`] while a shard computes.  The socket sets
/// `TCP_NODELAY` ([`crate::net::TcpTransport`] gives the reason).
pub fn serve_tcp_with(stream: TcpStream, token: Option<String>) -> i32 {
    let Ok((lines, writer)) = accept_socket(stream) else {
        return 2;
    };
    let send = |block: &[String]| send_block(&writer, block);
    serve_session(lines, token.as_deref(), send, Some(HEARTBEAT_INTERVAL))
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
    let mut backoff = Backoff::standard(0x4A01_4E52);
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
