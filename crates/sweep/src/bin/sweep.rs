//! The `sweep` CLI: drive the paper's (benchmark × backend) experiments
//! sharded across worker OS processes or a TCP worker fleet, run the
//! long-lived sweep service, or act as its streaming client — and
//! optionally verify every merged result against the in-process
//! thread-parallel run.
//!
//! ```text
//! sweep [--workers N] [--strategy static|queue] [--benchmarks a,b,c]
//!       [--backends list] [--scale test|small|ref] [--experiment spec|tools]
//!       [--max-attempts N] [--tcp-workers addr,addr]
//!       [--shard-timeout-ms N] [--silence-timeout-ms N] [--check] [--json]
//! sweep serve --listen <addr> [--tcp-workers addr,addr]
//!       [--register-listen <addr>] [--token <token>]
//!       [--max-pending N] [--max-queued-jobs N]
//!       [--max-attempts N] [--shard-timeout-ms N] [--silence-timeout-ms N]
//! sweep --connect <addr> [--benchmarks ...] [--backends ...] [--scale ...]
//!       [--token <token>] [--connect-retries N] [--check] [--json]
//! sweep --connect <addr> --stats [--json]
//! sweep --connect <addr> --shutdown
//! ```
//!
//! Workers are this same binary re-executed with `SAN_WORKER=1` (no
//! separate install needed), unless `SWEEP_WORKER_BIN` points at a
//! `sweep_worker` binary, or `--tcp-workers` names listening
//! `sweep_worker --listen` processes.  Backend selection falls back to
//! the `SAN_BACKENDS` environment variable and in-worker threading
//! honours `SAN_PARALLEL`, exactly like the in-process bench binaries.
//!
//! `--check` re-runs the same matrix in-process (thread-parallel) and
//! diffs every merged/streamed field except wall time, exiting nonzero on
//! any difference — CI runs this as the sharded-vs-parallel and
//! service-vs-parallel gate.

use std::time::Duration;

use effective_san::{
    default_backends, parse_backend_list, spec_experiment, Parallelism, SanitizerKind,
    SpecExperiment,
};
use sweep::coordinator::{ShardStrategy, SweepConfig, WorkerLaunch};
use sweep::serve::{serve_forever, ServeOptions};
use sweep::{
    client_shutdown, client_stats_with, client_sweep_with, diff_experiments,
    sharded_spec_experiment, sharded_tool_comparison, ClientOptions,
};
use workloads::{Scale, SpecBenchmark};

struct Options {
    workers: usize,
    strategy: ShardStrategy,
    benchmarks: Option<Vec<String>>,
    backends: Vec<SanitizerKind>,
    scale: Scale,
    experiment: String,
    max_attempts: usize,
    tcp_workers: Option<Vec<String>>,
    shard_timeout: Option<Duration>,
    silence_timeout: Option<Duration>,
    listen: Option<String>,
    register_listen: Option<String>,
    token: Option<String>,
    max_pending: Option<usize>,
    max_queued_jobs: Option<usize>,
    connect: Option<String>,
    connect_retries: Option<u32>,
    serve: bool,
    stats: bool,
    shutdown: bool,
    check: bool,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--workers N] [--strategy static|queue] [--benchmarks a,b,c] \
         [--backends list] [--scale test|small|ref] [--experiment spec|tools] \
         [--max-attempts N] [--tcp-workers addr,addr] [--shard-timeout-ms N] \
         [--silence-timeout-ms N] [--check] [--json]\n\
         \x20      sweep serve --listen <addr> [--tcp-workers addr,addr] \
         [--register-listen <addr>] [--token T] [--max-pending N] [--max-queued-jobs N] [...]\n\
         \x20      sweep --connect <addr> [--benchmarks ...] [--backends ...] [--token T] \
         [--connect-retries N] [--check] [--json]\n\
         \x20      sweep --connect <addr> --stats [--json]\n\
         \x20      sweep --connect <addr> --shutdown"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options {
        workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
        strategy: ShardStrategy::default(),
        benchmarks: None,
        backends: default_backends(),
        scale: Scale::Small,
        experiment: "spec".to_string(),
        max_attempts: 3,
        tcp_workers: None,
        shard_timeout: None,
        silence_timeout: None,
        listen: None,
        register_listen: None,
        token: None,
        max_pending: None,
        max_queued_jobs: None,
        connect: None,
        connect_retries: None,
        serve: false,
        stats: false,
        shutdown: false,
        check: false,
        json: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        opts.serve = true;
    }
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("sweep: {flag} needs a value");
            usage();
        })
    };
    let ms_value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Duration {
        Duration::from_millis(value(args, flag).parse().unwrap_or_else(|e| {
            eprintln!("sweep: bad {flag} value: {e}");
            usage();
        }))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                opts.workers = value(&mut args, "--workers").parse().unwrap_or_else(|e| {
                    eprintln!("sweep: bad --workers value: {e}");
                    usage();
                })
            }
            "--strategy" => {
                opts.strategy = value(&mut args, "--strategy").parse().unwrap_or_else(|e| {
                    eprintln!("sweep: {e}");
                    usage();
                })
            }
            "--benchmarks" => {
                opts.benchmarks = Some(
                    value(&mut args, "--benchmarks")
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.to_string())
                        .collect(),
                )
            }
            "--backends" => {
                opts.backends =
                    parse_backend_list(&value(&mut args, "--backends")).unwrap_or_else(|e| {
                        eprintln!("sweep: {e}");
                        usage();
                    })
            }
            "--scale" => {
                opts.scale = value(&mut args, "--scale").parse().unwrap_or_else(|e| {
                    eprintln!("sweep: {e}");
                    usage();
                })
            }
            "--experiment" => {
                opts.experiment = value(&mut args, "--experiment");
                if opts.experiment != "spec" && opts.experiment != "tools" {
                    eprintln!(
                        "sweep: unknown experiment `{}` (spec, tools)",
                        opts.experiment
                    );
                    usage();
                }
            }
            "--max-attempts" => {
                opts.max_attempts = value(&mut args, "--max-attempts")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("sweep: bad --max-attempts value: {e}");
                        usage();
                    })
            }
            "--tcp-workers" => {
                opts.tcp_workers = Some(
                    value(&mut args, "--tcp-workers")
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.to_string())
                        .collect(),
                )
            }
            "--shard-timeout-ms" => {
                opts.shard_timeout = Some(ms_value(&mut args, "--shard-timeout-ms"))
            }
            "--silence-timeout-ms" => {
                opts.silence_timeout = Some(ms_value(&mut args, "--silence-timeout-ms"))
            }
            "--listen" => opts.listen = Some(value(&mut args, "--listen")),
            "--register-listen" => {
                opts.register_listen = Some(value(&mut args, "--register-listen"))
            }
            "--token" => opts.token = Some(value(&mut args, "--token")).filter(|t| !t.is_empty()),
            "--max-pending" => {
                opts.max_pending = Some(value(&mut args, "--max-pending").parse().unwrap_or_else(
                    |e| {
                        eprintln!("sweep: bad --max-pending value: {e}");
                        usage();
                    },
                ))
            }
            "--max-queued-jobs" => {
                opts.max_queued_jobs = Some(
                    value(&mut args, "--max-queued-jobs")
                        .parse()
                        .unwrap_or_else(|e| {
                            eprintln!("sweep: bad --max-queued-jobs value: {e}");
                            usage();
                        }),
                )
            }
            "--connect" => opts.connect = Some(value(&mut args, "--connect")),
            "--connect-retries" => {
                opts.connect_retries = Some(
                    value(&mut args, "--connect-retries")
                        .parse()
                        .unwrap_or_else(|e| {
                            eprintln!("sweep: bad --connect-retries value: {e}");
                            usage();
                        }),
                )
            }
            "--shutdown" => opts.shutdown = true,
            "--stats" => opts.stats = true,
            "--check" => opts.check = true,
            "--json" => opts.json = true,
            _ => {
                eprintln!("sweep: unknown argument `{arg}`");
                usage();
            }
        }
    }
    opts
}

/// Diff an experiment obtained remotely (sharded or streamed) against the
/// in-process thread-parallel run, exiting nonzero on any difference.
fn check_against_in_process(remote: &SpecExperiment, backends: &[SanitizerKind], scale: Scale) {
    let names: Vec<&str> = remote.rows.iter().map(|r| r.name.as_str()).collect();
    let in_process = spec_experiment(Some(&names), scale, backends, Parallelism::Parallel);
    let diffs = diff_experiments(remote, &in_process);
    if diffs.is_empty() {
        eprintln!(
            "check: remote == in-process parallel across {} rows × {} backends",
            remote.rows.len(),
            backends.len()
        );
    } else {
        eprintln!("check FAILED: {} differences", diffs.len());
        for diff in diffs {
            eprintln!("  {diff}");
        }
        std::process::exit(1);
    }
}

fn print_spec_table_header() {
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8}",
        "benchmark", "backend", "cost", "checks", "issues"
    );
}

fn print_spec_row(row: &effective_san::SpecRow) {
    for report in &row.reports {
        println!(
            "{:<12} {:<26} {:>14.0} {:>14} {:>8}",
            row.name,
            report.sanitizer.name(),
            report.cost,
            report.total_checks(),
            report.errors.distinct_issues
        );
    }
}

/// `sweep serve`: run the daemon until killed or told `shutdown`.
fn run_serve(opts: Options) -> ! {
    let Some(listen) = opts.listen else {
        eprintln!("sweep: serve needs --listen <addr>");
        usage();
    };
    // A fleet can be all dial-out, all self-registered, or mixed — but
    // a daemon with neither would accept sweeps it can never run.
    let workers = opts.tcp_workers.unwrap_or_default();
    if workers.is_empty() && opts.register_listen.is_none() {
        eprintln!("sweep: serve needs --tcp-workers addr[,addr...] or --register-listen <addr>");
        usage();
    }
    let mut options = ServeOptions::new(listen, workers);
    options.register_listen = opts.register_listen;
    if opts.token.is_some() {
        options.token = opts.token;
    }
    options.max_pending = opts.max_pending;
    options.max_queued_jobs = opts.max_queued_jobs;
    options.max_attempts = opts.max_attempts;
    if opts.shard_timeout.is_some() {
        options.shard_timeout = opts.shard_timeout;
    }
    if opts.silence_timeout.is_some() {
        options.silence_timeout = opts.silence_timeout;
    }
    match serve_forever(options) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        }
    }
}

/// The client-side connection options shared by every `--connect` mode.
fn client_options(opts: &Options) -> ClientOptions {
    let mut options = ClientOptions::default();
    if opts.token.is_some() {
        options.token = opts.token.clone();
    }
    if let Some(attempts) = opts.connect_retries {
        options.connect_attempts = attempts.max(1);
    }
    options
}

/// `sweep --connect <addr> --stats`: query the daemon's live statistics
/// and render them as a table or (with `--json`) one JSON object.
fn run_stats(addr: &str, opts: &Options) -> ! {
    let stats = client_stats_with(addr, &client_options(opts)).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        std::process::exit(1);
    });
    if opts.json {
        println!("{}", sweep::json::service_stats_json(&stats));
        std::process::exit(0);
    }
    println!(
        "sweep service at {addr}: {} queued jobs, {} pending requests, \
         {} clients served, {} requests ({} failed, {} cancelled, {} busy-rejected)",
        stats.queued_jobs,
        stats.pending_requests,
        stats.clients_total,
        stats.requests_total,
        stats.requests_failed,
        stats.requests_cancelled,
        stats.rejected_busy
    );
    println!(
        "{:<5} {:<22} {:>4} {:>4} {:>4} {:>7} {:>6} {:>6} {:>6} {:>20} {:>20}",
        "slot",
        "addr",
        "live",
        "reg",
        "busy",
        "queued",
        "done",
        "fail",
        "steal",
        "hb p50/p99 µs",
        "shard p50/p99 µs"
    );
    for w in &stats.workers {
        println!(
            "{:<5} {:<22} {:>4} {:>4} {:>4} {:>7} {:>6} {:>6} {:>6} {:>20} {:>20}",
            w.slot,
            w.addr,
            if w.live { "yes" } else { "no" },
            if w.registered { "yes" } else { "no" },
            if w.busy { "yes" } else { "no" },
            w.queued,
            w.completed,
            w.failed,
            w.steals,
            format!("{}/{}", w.heartbeat_gap_us.p50, w.heartbeat_gap_us.p99),
            format!("{}/{}", w.shard_latency_us.p50, w.shard_latency_us.p99),
        );
    }
    if !stats.requests.is_empty() {
        println!("in-flight requests:");
        for r in &stats.requests {
            println!(
                "  request {}: {}/{} jobs done, {} queued ({} benchmarks)",
                r.req_id, r.jobs_done, r.jobs_total, r.jobs_queued, r.benchmarks
            );
        }
    }
    std::process::exit(0);
}

/// `sweep --connect <addr> --shutdown`: ask the daemon to drain its
/// in-flight work and exit.
fn run_shutdown(addr: &str, opts: &Options) -> ! {
    match client_shutdown(addr, &client_options(opts)) {
        Ok(()) => {
            eprintln!("sweep: daemon at {addr} acknowledged shutdown");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        }
    }
}

/// `sweep --connect`: submit a sweep to a daemon and render the streamed
/// rows (incrementally for the table view; buffered for `--json`, whose
/// location rollup needs the whole experiment).
fn run_connect(addr: &str, opts: Options) -> ! {
    if opts.shutdown {
        run_shutdown(addr, &opts);
    }
    if opts.stats {
        run_stats(addr, &opts);
    }
    let benchmarks = match &opts.benchmarks {
        Some(names) => names.clone(),
        None => SpecBenchmark::names()
            .into_iter()
            .map(|n| n.to_string())
            .collect(),
    };
    let request = sweep::SweepRequest {
        scale: opts.scale,
        parallelism: Parallelism::from_env(),
        benchmarks,
        backends: opts.backends.clone(),
    };
    if !opts.json {
        println!(
            "spec experiment at {:?}, {} benchmarks × {} backends, streamed from {addr}",
            opts.scale,
            request.benchmarks.len(),
            request.backends.len()
        );
        print_spec_table_header();
    }
    let streamed = client_sweep_with(addr, &client_options(&opts), &request, |_, row| {
        if !opts.json {
            print_spec_row(row);
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        std::process::exit(1);
    });
    if opts.json {
        println!("{}", sweep::json::experiment_report_json(&streamed, None));
    }
    if opts.check {
        check_against_in_process(&streamed, &opts.backends, opts.scale);
    }
    std::process::exit(0);
}

fn main() {
    // A typo'd SWEEP_CHAOS must kill the process at startup, not
    // silently soak nothing — checked before the worker-mode dispatch
    // so re-exec'd workers inherit the same discipline.
    if let Err(e) = sweep::Chaos::from_env() {
        eprintln!("sweep: malformed {}: {e}", sweep::CHAOS_ENV);
        std::process::exit(2);
    }

    // Worker mode: the coordinator re-executed us with SAN_WORKER set.
    if std::env::var_os(sweep::worker::WORKER_ENV).is_some() {
        std::process::exit(sweep::worker::run_stdio());
    }

    let opts = parse_options();
    if opts.serve {
        run_serve(opts);
    }
    if opts.stats && opts.connect.is_none() {
        eprintln!("sweep: --stats needs --connect <addr>");
        usage();
    }
    if opts.shutdown && opts.connect.is_none() {
        eprintln!("sweep: --shutdown needs --connect <addr>");
        usage();
    }
    if let Some(addr) = opts.connect.clone() {
        run_connect(&addr, opts);
    }

    let worker = match &opts.tcp_workers {
        Some(addrs) => WorkerLaunch::Tcp(addrs.clone()),
        // Honours SWEEP_WORKER_BIN and a sibling sweep_worker binary,
        // falling back to SAN_WORKER=1 re-exec of this binary; rejects a
        // nonexistent SWEEP_WORKER_BIN before anything is spawned.
        None => WorkerLaunch::detect().unwrap_or_else(|e| {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        }),
    };
    let config = SweepConfig {
        workers: opts.workers,
        strategy: opts.strategy,
        max_attempts: opts.max_attempts,
        scale: opts.scale,
        parallelism: Parallelism::from_env(),
        worker,
        worker_env: Vec::new(),
        shard_timeout: opts.shard_timeout,
        silence_timeout: opts.silence_timeout,
        token: opts.token.clone().or_else(sweep::token_from_env),
    };
    let names: Option<Vec<&str>> = opts
        .benchmarks
        .as_ref()
        .map(|b| b.iter().map(|s| s.as_str()).collect());

    if opts.experiment == "tools" {
        if opts.json {
            // Diagnostics JSON is a spec-experiment export; ignoring the
            // flag here would silently drop a requested output.
            eprintln!("sweep: --json is only supported with --experiment spec");
            std::process::exit(2);
        }
        let names: Vec<&str> = names.unwrap_or_else(|| vec!["mcf", "h264ref", "xalancbmk"]);
        let comparison =
            sharded_tool_comparison(&names, &opts.backends, &config).unwrap_or_else(|e| {
                eprintln!("sweep: {e}");
                std::process::exit(1);
            });
        println!(
            "§6.2 tool comparison, sharded across {} workers ({:?})",
            config.workers, config.strategy
        );
        println!(
            "{:<26} {:>12} {:>16}",
            "tool", "overhead %", "dynamic checks"
        );
        for (kind, overhead, checks) in &comparison.tools {
            println!("{:<26} {:>12.1} {:>16}", kind.name(), overhead, checks);
        }
        if opts.check {
            let in_process = effective_san::tool_comparison_with(
                &names,
                opts.scale,
                &opts.backends,
                Parallelism::Parallel,
            );
            let mut diffs = Vec::new();
            if comparison.tools.len() != in_process.tools.len() {
                diffs.push(format!(
                    "tool counts differ: {} vs {}",
                    comparison.tools.len(),
                    in_process.tools.len()
                ));
            }
            for ((kind_a, overhead_a, checks_a), (kind_b, overhead_b, checks_b)) in
                comparison.tools.iter().zip(&in_process.tools)
            {
                if kind_a != kind_b
                    || overhead_a.to_bits() != overhead_b.to_bits()
                    || checks_a != checks_b
                {
                    diffs.push(format!("{kind_a} vs {kind_b}: comparison rows differ"));
                }
            }
            if diffs.is_empty() {
                eprintln!(
                    "check: sharded tool comparison == in-process across {} tools",
                    comparison.tools.len()
                );
            } else {
                eprintln!("check FAILED: {} differences", diffs.len());
                for diff in diffs {
                    eprintln!("  {diff}");
                }
                std::process::exit(1);
            }
        }
        return;
    }

    let sharded = sharded_spec_experiment(names.as_deref(), &opts.backends, &config)
        .unwrap_or_else(|e| {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        });

    if opts.json {
        println!("{}", sweep::json::experiment_report_json(&sharded, None));
    } else {
        println!(
            "spec experiment at {:?}, {} benchmarks × {} backends, {} workers ({:?})",
            opts.scale,
            sharded.rows.len(),
            opts.backends.len(),
            config.workers,
            config.strategy
        );
        print_spec_table_header();
        for row in &sharded.rows {
            print_spec_row(row);
        }
    }

    if opts.check {
        check_against_in_process(&sharded, &opts.backends, opts.scale);
    }
}
