//! Shard round trips over TCP run at link speed.  A shard naming an
//! unknown benchmark is answered at once with a structured `error` reply,
//! so it costs no compute: what is left is the wire.  Twenty of them
//! back to back over one connection to a `sweep_worker --listen` must
//! take well under the ~40 ms per frame that Nagle's algorithm and
//! delayed ACKs would add.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use effective_san::Parallelism;
use san_api::SanitizerKind;
use sweep::net::{AttemptError, TcpTransport, WorkerConn};
use sweep::wire::ShardSpec;
use workloads::Scale;

/// The worker process, killed on drop so a failing test leaks nothing.
struct Worker(Child);

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn twenty_zero_compute_shard_round_trips_take_under_400ms() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sweep_worker"))
        .args(["--listen", "127.0.0.1:0"])
        .env_remove("SWEEP_TOKEN")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep_worker");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("worker stdout piped"))
        .read_line(&mut line)
        .expect("read the listening line");
    let _worker = Worker(child);
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("expected `listening <addr>`, got `{line}`"));

    let silence = Some(Duration::from_secs(10));
    let transport = TcpTransport::connect(addr, silence).expect("connect to the worker");
    let mut conn =
        WorkerConn::establish(Box::new(transport), silence, None).expect("worker handshake");
    let started = Instant::now();
    for id in 0..20 {
        let spec = ShardSpec {
            id,
            chunk: 0,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmark: "no-such-benchmark".to_string(),
            backends: vec![SanitizerKind::None],
        };
        match conn.run_shard(&spec, None, silence) {
            Err(AttemptError::Failed(message)) => {
                assert!(message.contains("no-such-benchmark"), "{message}")
            }
            Err(other) => panic!("expected a structured error reply, got {other:?}"),
            Ok(_) => panic!("an unknown benchmark cannot produce a row"),
        }
    }
    let elapsed = started.elapsed();
    conn.shutdown();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 zero-compute round trips took {elapsed:?}"
    );
}
