//! An accepted sweep connection gets `OPENING_TIMEOUT` from the accept
//! to finish its opening, as a whole rather than per read.  A socket that
//! connects to `sweep_worker --listen` and never writes is closed and its
//! thread freed; a peer that trickles its handshake one byte per second
//! is closed by the worker and by the daemon's client and registration
//! ports alike.  Once a
//! worker session is established and idle, no thread of the worker
//! wakes.  Every wait is bounded, so a server that never closes fails the
//! test instead of blocking it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sweep::net::{TcpTransport, WorkerConn, OPENING_TIMEOUT};

/// How long after its connect a server may take to close a peer whose
/// opening is unfinished.
fn close_bound() -> Duration {
    OPENING_TIMEOUT + Duration::from_secs(2)
}

/// A spawned service, killed on drop so a failing test leaks nothing.
struct Service {
    child: Child,
    /// The addresses it announced, in order.
    addrs: Vec<String>,
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Service {
    /// Spawn `bin` with `args` and read one address per entry of
    /// `announces` from its stdout lines, `<announce> <addr>` each.
    fn start(bin: &str, args: &[&str], announces: &[&str]) -> Service {
        let mut child = Command::new(bin)
            .args(args)
            .env_remove("SWEEP_TOKEN")
            .env_remove("SWEEP_CHAOS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        // Owned before the addresses are checked, so a bad line kills it.
        let mut service = Service {
            child,
            addrs: Vec::new(),
        };
        for announce in announces {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("read an announce line");
            let addr = line
                .trim()
                .strip_prefix(announce)
                .and_then(|rest| rest.strip_prefix(' '))
                .unwrap_or_else(|| panic!("expected `{announce} <addr>`, got `{line}`"));
            service.addrs.push(addr.to_string());
        }
        service
    }

    fn worker() -> Service {
        Service::start(
            env!("CARGO_BIN_EXE_sweep_worker"),
            &["--listen", "127.0.0.1:0"],
            &["listening"],
        )
    }

    fn daemon() -> Service {
        Service::start(
            env!("CARGO_BIN_EXE_sweep"),
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--register-listen",
                "127.0.0.1:0",
            ],
            &["serving", "registering"],
        )
    }

    /// A field of `/proc/<pid>/task/<tid>/status` for every thread.
    fn per_thread(&self, field: &str) -> HashMap<String, u64> {
        let tasks = format!("/proc/{}/task", self.child.id());
        std::fs::read_dir(tasks)
            .expect("list the worker's threads")
            .filter_map(|task| {
                let task = task.ok()?;
                let status = std::fs::read_to_string(task.path().join("status")).ok()?;
                let value = status
                    .lines()
                    .find_map(|l| l.strip_prefix(field)?.trim().parse().ok())?;
                Some((task.file_name().to_string_lossy().into_owned(), value))
            })
            .collect()
    }
}

/// Read `stream` until the server closes it (end of stream or a reset):
/// `true` if that happened before `until`, `false` if it was still open.
fn closed_before(stream: &mut TcpStream, until: Instant) -> bool {
    let mut buf = [0u8; 256];
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        stream
            .set_read_timeout(Some(left))
            .expect("set a read timeout");
        match stream.read(&mut buf) {
            Ok(0) => return true,
            // The server's own handshake line.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return true,
        }
    }
}

/// Write the handshake to `addr` one byte per second; the server must
/// close the connection within [`close_bound`] of the connect.
fn trickled_handshake_is_closed(addr: &str, server: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect the trickling peer");
    let until = Instant::now() + close_bound();
    for byte in format!("{}\n", sweep::HANDSHAKE).bytes() {
        if stream.write_all(&[byte]).is_err() {
            return;
        }
        let next = Instant::now() + Duration::from_secs(1);
        if closed_before(&mut stream, next.min(until)) {
            return;
        }
        assert!(
            Instant::now() < until,
            "{server} still held a peer trickling one byte per second open {:?} after it \
             connected",
            close_bound()
        );
    }
    panic!("{server} took a whole handshake trickled one byte per second");
}

#[test]
fn a_listening_worker_closes_idle_sockets_and_frees_their_threads() {
    let worker = Service::worker();
    let until = Instant::now() + close_bound();
    let mut idle: Vec<TcpStream> = (0..5)
        .map(|_| TcpStream::connect(&worker.addrs[0]).expect("connect an idle socket"))
        .collect();
    for (i, socket) in idle.iter_mut().enumerate() {
        assert!(
            closed_before(socket, until),
            "idle socket {i} was still open {:?} after it connected",
            close_bound()
        );
    }
    // Every session thread is gone; only the accept loop is left.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let threads = worker.per_thread("Threads:").into_values().max();
        if threads == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the worker still ran {threads:?} threads 2s after closing its idle sockets"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_trickled_handshake_is_closed_by_the_worker_and_the_daemon() {
    let worker = Service::worker();
    let daemon = Service::daemon();
    std::thread::scope(|scope| {
        scope.spawn(|| trickled_handshake_is_closed(&worker.addrs[0], "sweep_worker --listen"));
        scope.spawn(|| {
            trickled_handshake_is_closed(&daemon.addrs[1], "sweep serve's registration port")
        });
        trickled_handshake_is_closed(&daemon.addrs[0], "sweep serve's client port");
    });
}

#[test]
fn an_established_idle_worker_session_wakes_no_thread() {
    let worker = Service::worker();
    let wait = Some(Duration::from_secs(5));
    let transport = TcpTransport::connect(&worker.addrs[0], wait).expect("connect the worker");
    let conn = WorkerConn::establish(Box::new(transport), wait, None).expect("open a session");
    // Let the session settle: its thread into the read for the first
    // command, its compute thread into the wait for a shard.
    std::thread::sleep(Duration::from_millis(500));
    let before = worker.per_thread("voluntary_ctxt_switches:");
    std::thread::sleep(Duration::from_secs(2));
    let after = worker.per_thread("voluntary_ctxt_switches:");
    conn.shutdown();
    for (tid, switches) in &after {
        let woke = switches - before.get(tid).copied().unwrap_or(0);
        assert_eq!(
            woke, 0,
            "worker thread {tid} woke {woke} times in 2s while idle"
        );
    }
}
