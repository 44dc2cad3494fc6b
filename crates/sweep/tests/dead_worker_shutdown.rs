//! `--shutdown` must drain a `sweep serve` daemon whose only dial-out
//! worker refuses every connection.  The daemon has accepted a request it
//! can never run; shutting down retires the dead slot, the request fails
//! with a structured `sfail` naming the last dial error, and the daemon
//! exits 0.  Every wait is bounded, so a daemon that hangs instead fails
//! the test rather than blocking it.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use effective_san::Parallelism;
use san_api::SanitizerKind;
use sweep::{
    client_shutdown, client_stats_with, client_sweep_with, ClientError, ClientOptions, SweepRequest,
};
use workloads::Scale;

/// The daemon process, killed on drop so a failing test leaks nothing.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn shutdown_with_an_unreachable_worker_fails_the_request_and_exits_zero() {
    // Port 1 on localhost refuses connections.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--tcp-workers",
            "127.0.0.1:1",
        ])
        .env_remove("SWEEP_TOKEN")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("daemon stdout piped"))
        .read_line(&mut line)
        .expect("read the serving line");
    let mut daemon = Daemon(child);
    let addr = line
        .trim()
        .strip_prefix("serving ")
        .unwrap_or_else(|| panic!("expected `serving <addr>`, got `{line}`"))
        .to_string();
    let options = ClientOptions {
        token: None,
        ..ClientOptions::default()
    };

    let (tx, rx) = mpsc::channel();
    let client = {
        let (addr, options) = (addr.clone(), options.clone());
        let request = SweepRequest {
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmarks: vec!["mcf".to_string()],
            backends: vec![SanitizerKind::None],
        };
        // Joined only once it answered: at a daemon that hangs, this
        // client never returns, and the test must fail instead of block.
        std::thread::spawn(move || {
            let _ = tx.send(client_sweep_with(&addr, &options, &request, |_, _| {}));
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while client_stats_with(&addr, &options)
        .expect("stats query")
        .requests_total
        == 0
    {
        assert!(
            Instant::now() < deadline,
            "the daemon never accepted the request"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    client_shutdown(&addr, &options).expect("shutdown acknowledged");
    let outcome = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the client got no answer within 10s of the shutdown");
    client.join().expect("client thread");
    match outcome {
        Err(ClientError::Service(message)) => {
            assert!(message.contains("unreachable"), "{message}");
            assert!(message.contains("127.0.0.1:1"), "{message}");
        }
        Err(other) => panic!("expected a structured sfail, got: {other}"),
        Ok(_) => panic!("a sweep over a dead fleet cannot succeed"),
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "the daemon was still running 10s after acknowledging shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "daemon exited with {status}");
}
