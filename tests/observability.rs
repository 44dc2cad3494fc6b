//! Observability neutrality contract: every probe this repo grew — the
//! VM site profiler, the `SAN_TRACE`/`SWEEP_TRACE` structured-event
//! tracers, and the daemon's live `stats` telemetry — is read-only.
//! Turning any of it on must not change a single observable byte of the
//! runs it watches.
//!
//! Three angles:
//!
//! * In-process: [`run_program_profiled`] with profiling on returns a
//!   `RunReport` bit-identical to the unprofiled run, plus a profile
//!   that names real check sites.
//! * Subprocess: a sharded `sweep` run with both trace variables set
//!   produces stdout byte-identical to the untraced run, while the
//!   trace sinks fill with well-formed JSONL.
//! * Daemon: a `sweep serve` daemon under `SWEEP_TRACE` streams results
//!   identical to the in-process experiment, answers the `stats` wire
//!   frame with live per-worker telemetry (via the CLI in both table
//!   and JSON renderings), and logs the client lifecycle to its sink.
//!
//! (Registered on the `sweep` crate so `CARGO_BIN_EXE_sweep` and
//! `CARGO_BIN_EXE_sweep_worker` resolve to the binaries under test.)

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

use effective_san::workloads::SpecBenchmark;
use effective_san::{
    minic, run_program, run_program_profiled, spec_experiment, Parallelism, RunConfig,
    SanitizerKind, Scale,
};
use sweep::{client_stats, client_sweep, diff_experiments, SweepRequest};

/// A unique temp-file path for a trace sink (tests run in parallel in
/// one process, so the name carries both the pid and a tag).
fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("obs_{}_{}.jsonl", tag, std::process::id()))
}

/// Every line of a trace sink must be one JSON object shaped like the
/// tracer's output: `{"ev":"<name>","t_us":<n>,...}`.
fn assert_jsonl_shape(context: &str, contents: &str) {
    for line in contents.lines() {
        assert!(
            line.starts_with("{\"ev\":\"") && line.contains("\"t_us\":") && line.ends_with('}'),
            "{context}: malformed trace line: {line}"
        );
    }
}

#[test]
fn profiled_run_report_is_bit_identical_to_unprofiled() {
    let bench = SpecBenchmark::by_name("mcf").expect("known benchmark");
    let program = minic::compile(&bench.source(Scale::Test)).expect("workload compiles");
    let args = [Scale::Test.n()];
    for kind in [SanitizerKind::None, SanitizerKind::EffectiveFull] {
        let mut config = RunConfig::for_sanitizer(kind);
        let mut plain = run_program(&program, "bench_main", &args, &config);
        config.profile = true;
        let (mut profiled, report) = run_program_profiled(&program, "bench_main", &args, &config);
        // Wall-clock time is the one field that can never match between
        // two runs; every other field must be bit-identical.
        plain.wall_time = Duration::ZERO;
        profiled.wall_time = Duration::ZERO;
        assert_eq!(
            plain, profiled,
            "profiling changed the run report under {kind}"
        );
        let report = report.expect("profile requested but not returned");
        assert!(
            !report.funcs.is_empty(),
            "profile under {kind} saw no functions"
        );
        if kind == SanitizerKind::EffectiveFull {
            assert!(
                !report.sites.is_empty(),
                "instrumented run profiled no check sites"
            );
            let checked: u64 = report.sites.iter().map(|(_, c)| c.hits + c.misses).sum();
            assert!(checked > 0, "no check site recorded an executed check");
        }
    }
    // Profiling off returns no report.
    let config = RunConfig::for_sanitizer(SanitizerKind::EffectiveFull);
    let (_, report) = run_program_profiled(&program, "bench_main", &args, &config);
    assert!(report.is_none(), "profile returned without being requested");
}

fn sweep_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

/// One sharded sweep run with a single worker (so exactly one process
/// writes each trace sink) and the given extra environment.
fn run_sharded_sweep(envs: &[(&str, &str)]) -> Output {
    let mut cmd = sweep_cmd();
    cmd.args([
        "--workers",
        "1",
        "--benchmarks",
        "mcf,h264ref",
        "--backends",
        "none,effective-full",
        "--scale",
        "test",
    ]);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("run sweep binary")
}

#[test]
fn traced_sweep_stdout_is_byte_identical_to_untraced() {
    let san = trace_path("san");
    let swp = trace_path("sweep");
    let untraced = run_sharded_sweep(&[]);
    assert!(
        untraced.status.success(),
        "untraced sweep failed:\n{}",
        String::from_utf8_lossy(&untraced.stderr)
    );
    let traced = run_sharded_sweep(&[
        ("SAN_TRACE", san.to_str().unwrap()),
        ("SWEEP_TRACE", swp.to_str().unwrap()),
    ]);
    assert!(
        traced.status.success(),
        "traced sweep failed:\n{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    assert_eq!(
        untraced.stdout, traced.stdout,
        "enabling SAN_TRACE/SWEEP_TRACE changed the sweep's stdout"
    );

    // The coordinator always summarises per-worker heartbeat gaps when
    // traced, so the sweep sink is never empty.
    let sweep_trace = std::fs::read_to_string(&swp).expect("SWEEP_TRACE sink written");
    assert!(
        !sweep_trace.trim().is_empty(),
        "SWEEP_TRACE sink is empty after a traced sweep"
    );
    assert_jsonl_shape("SWEEP_TRACE", &sweep_trace);
    assert!(
        sweep_trace.contains("\"ev\":\"sweep_worker_hb\""),
        "coordinator never summarised worker heartbeat gaps:\n{sweep_trace}"
    );

    // The VM-layer sink is written by the (single) worker; the default
    // config translates each function at its first call, so it records
    // one `tier_promote` per function called.
    let san_trace = std::fs::read_to_string(&san).expect("SAN_TRACE sink written");
    assert_jsonl_shape("SAN_TRACE", &san_trace);
    assert!(
        san_trace.contains("\"ev\":\"tier_promote\""),
        "worker recorded no tier promotions:\n{san_trace}"
    );

    let _ = std::fs::remove_file(&san);
    let _ = std::fs::remove_file(&swp);
}

/// A spawned service process (worker or daemon) that announced its
/// resolved address on stdout; killed on drop so failing tests do not
/// leak listeners.
struct Service {
    child: Child,
    addr: String,
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn a process and read its `<announce> <addr>` line from stdout.
fn spawn_service(mut command: Command, announce: &str) -> Service {
    let mut child = command
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn service process");
    let stdout = child.stdout.take().expect("service stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read service announce line");
    let addr = line
        .trim()
        .strip_prefix(announce)
        .unwrap_or_else(|| panic!("expected `{announce}<addr>`, got `{line}`"))
        .to_string();
    Service { child, addr }
}

/// A `sweep_worker --listen` on an ephemeral port.
fn spawn_worker() -> Service {
    let mut command = Command::new(env!("CARGO_BIN_EXE_sweep_worker"));
    command.args(["--listen", "127.0.0.1:0"]);
    spawn_service(command, "listening ")
}

/// A `sweep serve` daemon over the given fleet, with extra env.
fn spawn_daemon(workers: &[&Service], env: &[(&str, &str)]) -> Service {
    let fleet: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
    let mut command = sweep_cmd();
    command.args([
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--tcp-workers",
        &fleet.join(","),
    ]);
    for (key, value) in env {
        command.env(key, value);
    }
    spawn_service(command, "serving ")
}

#[test]
fn traced_daemon_streams_identical_results_and_serves_live_stats() {
    let swp = trace_path("daemon");
    let workers = [spawn_worker(), spawn_worker()];
    let daemon = spawn_daemon(
        &[&workers[0], &workers[1]],
        &[("SWEEP_TRACE", swp.to_str().unwrap())],
    );

    let request = SweepRequest {
        scale: Scale::Test,
        parallelism: Parallelism::Parallel,
        benchmarks: vec!["mcf".into(), "h264ref".into()],
        backends: vec![SanitizerKind::None, SanitizerKind::EffectiveFull],
    };
    let streamed =
        client_sweep(&daemon.addr, &request, |_, _| {}).expect("sweep through traced daemon");
    let in_process = spec_experiment(
        Some(&["mcf", "h264ref"]),
        Scale::Test,
        &request.backends,
        Parallelism::Parallel,
    );
    let diffs = diff_experiments(&streamed, &in_process);
    assert!(
        diffs.is_empty(),
        "traced daemon vs in-process: {} differences:\n  {}",
        diffs.len(),
        diffs.join("\n  ")
    );

    // The daemon deregisters the finished request from its own client
    // thread, which can lag the client's last read by a beat — poll the
    // stats frame until the board has settled.
    let mut stats = client_stats(&daemon.addr).expect("stats frame");
    for _ in 0..100 {
        let jobs_done: u64 = stats.workers.iter().map(|w| w.completed).sum();
        if stats.requests.is_empty() && jobs_done >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        stats = client_stats(&daemon.addr).expect("stats frame");
    }
    assert_eq!(stats.workers.len(), 2, "one wstat line per fleet slot");
    let completed: u64 = stats.workers.iter().map(|w| w.completed).sum();
    assert_eq!(completed, 2, "both shards of the sweep completed");
    assert_eq!(stats.requests_total, 1, "one sweep request was accepted");
    assert_eq!(stats.requests_failed, 0);
    assert_eq!(stats.requests_cancelled, 0);
    assert_eq!(stats.queued_jobs, 0, "nothing left on the board");
    assert!(
        stats.requests.is_empty(),
        "finished request still reported in-flight: {:?}",
        stats.requests
    );
    // Every completed shard recorded its latency.
    for w in &stats.workers {
        assert_eq!(
            w.shard_latency_us.count, w.completed,
            "slot {}: latency histogram disagrees with its completion count",
            w.slot
        );
        assert!(!w.busy, "slot {} still marked busy after the sweep", w.slot);
    }

    // The CLI renderings of the same frame: JSON carries the schema tag
    // and per-worker array, the table names the per-slot columns.
    let json_out = sweep_cmd()
        .args(["--connect", &daemon.addr, "--stats", "--json"])
        .output()
        .expect("run sweep --stats --json");
    assert!(
        json_out.status.success(),
        "--stats --json failed:\n{}",
        String::from_utf8_lossy(&json_out.stderr)
    );
    let json = String::from_utf8(json_out.stdout).expect("stats JSON is UTF-8");
    assert!(
        json.contains("\"schema\": \"effective-san-sweep-stats/2\"")
            || json.contains("\"schema\":\"effective-san-sweep-stats/2\""),
        "stats JSON lacks its schema tag:\n{json}"
    );
    assert!(json.contains("\"workers\""), "{json}");
    assert!(json.contains("\"shard_latency_us\""), "{json}");

    let table_out = sweep_cmd()
        .args(["--connect", &daemon.addr, "--stats"])
        .output()
        .expect("run sweep --stats");
    assert!(
        table_out.status.success(),
        "--stats failed:\n{}",
        String::from_utf8_lossy(&table_out.stderr)
    );
    let table = String::from_utf8_lossy(&table_out.stdout).to_string();
    assert!(table.contains("queued jobs"), "{table}");
    assert!(table.contains("slot"), "{table}");

    // The daemon's sink logged the client lifecycle (events are flushed
    // line-by-line, so the finished request is already on disk).
    let sweep_trace = std::fs::read_to_string(&swp).expect("daemon SWEEP_TRACE sink written");
    assert_jsonl_shape("daemon SWEEP_TRACE", &sweep_trace);
    assert!(
        sweep_trace.contains("\"ev\":\"serve_client_connect\""),
        "no connect event:\n{sweep_trace}"
    );
    assert!(
        sweep_trace.contains("\"ev\":\"serve_request_accept\""),
        "no accept event:\n{sweep_trace}"
    );

    drop(daemon);
    let _ = std::fs::remove_file(&swp);
}
