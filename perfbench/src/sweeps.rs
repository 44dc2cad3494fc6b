//! The two sweep workloads.
//!
//! `sweep-daemon`: a `sweep serve` daemon over two TCP `sweep_worker`
//! processes; two client threads each loop `client_sweep_with` (closed
//! loop).  The wire, not compute, bounds each request.
//!
//! `sweep-sharded`: one `sharded_spec_experiment` at a time over two pipe
//! workers.  Compute-bound: the control for every wire change.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use effective_san::workloads::{Scale, SpecBenchmark};
use effective_san::{spec_experiment, Parallelism, SanitizerKind, SpecExperiment, SpecRow};
use sweep::coordinator::{ShardStrategy, SweepConfig, WorkerLaunch};
use sweep::net::{PipeTransport, TcpTransport, WorkerConn};
use sweep::wire::{self, ShardSpec, SliceLines, SweepRequest};
use sweep::{
    client_shutdown, client_stats_with, client_sweep_with, diff_experiments, ClientOptions,
};

use crate::host::{vm_hwm_kib, ChildHwm, Proc};
use crate::inputs::{daemon_requests, ShardedSweeps};
use crate::metrics::{Tally, Values};
use crate::speed::HostSpeed;
use crate::stats::{kind_medians, median, percentile};
use crate::trace::Tracer;
use crate::{repeated_setup, Args, Outcome, SetupTimes};

const KINDS: [SanitizerKind; 13] = SanitizerKind::ALL;
const SILENCE: Option<Duration> = Some(Duration::from_secs(30));
/// Closed-loop client threads of `sweep-daemon`.
const CLIENTS: usize = 2;
/// Probe samples `sweep-daemon` takes between request rounds.
const PAUSE_PROBES: usize = 5;
/// Shards per connection in the shard round-trip probes.
const PROBE_SHARDS: usize = 3;
/// Connections per transport in the shard round-trip probes.
const PROBE_CONNECTIONS: usize = 3;
/// The fixed warm-up of each sweep workload's set-up: the daemon serves
/// a request for the first at test scale; the sharded coordinator sweeps
/// both at small scale, so compute rather than process start-up noise
/// dominates its set-up time.
const WARMUP: [&str; 2] = ["gcc", "perlbench"];

/// The in-process answer for every benchmark at `scale`, one row each.
fn oracle_rows(scale: Scale) -> HashMap<String, SpecRow> {
    SpecBenchmark::names()
        .into_iter()
        .map(|name| {
            let mut exp = spec_experiment(Some(&[name]), scale, &KINDS, Parallelism::Sequential);
            (name.to_string(), exp.rows.remove(0))
        })
        .collect()
}

fn expected<S: AsRef<str>>(
    names: &[S],
    rows: &HashMap<String, SpecRow>,
    scale: Scale,
) -> SpecExperiment {
    SpecExperiment {
        scale,
        rows: names.iter().map(|n| rows[n.as_ref()].clone()).collect(),
        sanitizers: KINDS.to_vec(),
    }
}

/// Check a sweep result against the in-process oracle.
fn sweep_ok<S: AsRef<str>>(
    got: &Result<SpecExperiment, String>,
    names: &[S],
    rows: &HashMap<String, SpecRow>,
    scale: Scale,
) -> bool {
    let diffs = match got {
        Ok(exp) => diff_experiments(exp, &expected(names, rows, scale)),
        Err(e) => vec![e.clone()],
    };
    for d in &diffs {
        eprintln!("MISMATCH {d}");
    }
    diffs.is_empty()
}

/// One timed operation.  Its result is checked against the oracle as
/// soon as it returns and only a summary is kept, so the load process's
/// memory does not grow with the number of operations a run completes.
struct Sample {
    /// Which repeated piece of work this is: the request window, or the
    /// sweep order.
    kind: usize,
    names: Vec<String>,
    start: Instant,
    end: Instant,
    /// Start and end of each `on_row` callback (empty for sharded sweeps).
    rows: Vec<(Instant, Instant)>,
    /// Whether the result equals the oracle's (mismatches are printed).
    ok: bool,
    /// Reports a correct result delivered.
    reports: usize,
    /// `(benchmark, backend, seconds)`: the EffectiveSan and uninstrumented
    /// run times the workers put in a correct result's rows.
    walls: Vec<(String, SanitizerKind, f64)>,
}

impl Sample {
    fn new<S: AsRef<str>>(
        kind: usize,
        names: &[S],
        (start, end): (Instant, Instant),
        rows: Vec<(Instant, Instant)>,
        result: Result<SpecExperiment, String>,
        oracle: &HashMap<String, SpecRow>,
        scale: Scale,
    ) -> Sample {
        let ok = sweep_ok(&result, names, oracle, scale);
        let (mut reports, mut walls) = (0, Vec::new());
        if let (true, Ok(exp)) = (ok, &result) {
            for row in &exp.rows {
                reports += row.reports.len();
                for r in &row.reports {
                    if matches!(
                        r.sanitizer,
                        SanitizerKind::EffectiveFull | SanitizerKind::None
                    ) {
                        walls.push((row.name.clone(), r.sanitizer, r.wall_time.as_secs_f64()));
                    }
                }
            }
        }
        Sample {
            kind,
            names: names.iter().map(|n| n.as_ref().to_string()).collect(),
            start,
            end,
            rows,
            ok,
            reports,
            walls,
        }
    }

    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Run-time samples (s) per (benchmark, EffectiveSan or uninstrumented).
#[derive(Default)]
struct RowWalls(HashMap<(String, SanitizerKind), Vec<f64>>);

impl RowWalls {
    fn add(&mut self, sample: &Sample) {
        for (name, kind, s) in &sample.walls {
            self.0.entry((name.clone(), *kind)).or_default().push(*s);
        }
    }

    /// Seconds per pass: the sum over benchmarks of each one's median.
    fn pass_seconds(&self, kind: SanitizerKind) -> f64 {
        self.0
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, samples)| median(samples))
            .sum()
    }
}

/// Shared end-to-end values of both sweep workloads, each sample timed at
/// the median of its kind and multiplied by `op_scale`, with VM run times
/// multiplied by `vm_scale` (see `speed`); throughput is that of
/// `clients` closed loops at those times.  Counts every sample's check.
fn end_to_end(
    samples: &[Sample],
    clients: usize,
    (op_scale, vm_scale): (f64, f64),
    tally: &mut Tally,
    values: &mut Values,
) {
    let mut walls = RowWalls::default();
    let mut reports = 0;
    for s in samples {
        tally.record(s.ok);
        walls.add(s);
        reports += s.reports;
    }
    let kinds: Vec<_> = samples.iter().map(|s| (s.kind, s.ms())).collect();
    let op_ms: Vec<f64> = kind_medians(&kinds).iter().map(|t| t * op_scale).collect();
    values.insert("op_ms_p50", percentile(&op_ms, 50.0));
    values.insert("op_ms_p90", percentile(&op_ms, 90.0));
    let busy_s = op_ms.iter().sum::<f64>() / 1e3;
    values.insert("reports_per_s", (clients * reports) as f64 / busy_s);
    values.insert(
        "sanitized_s",
        walls.pass_seconds(SanitizerKind::EffectiveFull) * vm_scale,
    );
    values.insert(
        "uninstrumented_s",
        walls.pass_seconds(SanitizerKind::None) * vm_scale,
    );
}

/// Record each sample as a span tree and fill the trace metrics common
/// to both sweep workloads.
fn trace_samples(
    samples: &[Sample],
    untraced: &[Sample],
    tracer: &mut Tracer,
    values: &mut Values,
) {
    let mut ops = HashSet::new();
    for s in samples {
        let op = tracer.next_op();
        ops.insert(op);
        let name = if s.rows.is_empty() {
            "sweep.sharded"
        } else {
            "sweep.request"
        };
        let root = tracer.record(name, op, s.start, s.end, None);
        for &(a, b) in &s.rows {
            tracer.record("sweep.on_row", op, a, b, Some(root));
        }
    }
    let n = ops.len().max(1) as f64;
    let op_ms = tracer.root_ns(|s| ops.contains(&s.op)) as f64 / 1e6 / n;
    let self_ms: f64 = tracer
        .self_ns_by_layer(|s| ops.contains(&s.op))
        .values()
        .sum::<u64>() as f64
        / 1e6
        / n;
    values.insert("self.sweep_ms", self_ms);
    values.insert("trace.op_ms", op_ms);
    values.insert("trace.self_sum_pct", 100.0 * self_ms / op_ms);
    let med = |v: &[Sample]| median(&v.iter().map(Sample::ms).collect::<Vec<_>>());
    values.insert(
        "trace.overhead_pct",
        (med(samples) / med(untraced) - 1.0) * 100.0,
    );
}

/// A sharded sweep over two pipe workers from `bin_dir`.
fn sharded_config(bin_dir: &Path, scale: Scale) -> SweepConfig {
    SweepConfig {
        workers: 2,
        strategy: ShardStrategy::default(),
        max_attempts: 3,
        scale,
        parallelism: Parallelism::Sequential,
        worker: WorkerLaunch::Bin(bin_dir.join("sweep_worker")),
        worker_env: Vec::new(),
        shard_timeout: None,
        silence_timeout: None,
        token: None,
    }
}

/// Time the same shard computed in-process, over TCP to a listening
/// worker, over a pipe to a spawned worker, and swept by the coordinator
/// over two pipe workers; also the encode/decode cost of result rows.
fn shard_probes(
    bin_dir: &Path,
    benchmark: &str,
    scale: Scale,
    rows: &HashMap<String, SpecRow>,
    tracer: &mut Tracer,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let spec = |id| ShardSpec {
        id,
        chunk: 0,
        scale,
        parallelism: Parallelism::Sequential,
        benchmark: benchmark.to_string(),
        backends: KINDS.to_vec(),
    };
    let worker = bin_dir.join("sweep_worker");
    let mut listen = Command::new(&worker);
    listen.args(["--listen", "127.0.0.1:0"]);
    let (_tcp_worker, addr) = Proc::start(listen, "listening ")?;
    let (mut compute, mut tcp, mut pipe, mut establish) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for c in 0..2 * PROBE_CONNECTIONS {
        let over_tcp = c % 2 == 0;
        let t = Instant::now();
        let transport: Box<dyn sweep::net::Transport> = if over_tcp {
            Box::new(TcpTransport::connect(&addr, SILENCE).map_err(|e| e.to_string())?)
        } else {
            let child = Command::new(&worker)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", worker.display()))?;
            Box::new(PipeTransport::new(child))
        };
        let mut conn = WorkerConn::establish(transport, SILENCE, None)?;
        if !over_tcp {
            establish.push(t.elapsed().as_secs_f64() * 1e3);
        }
        for i in 0..PROBE_SHARDS {
            // The in-process run right before each round trip, so both
            // see the host at the same speed.
            let t = Instant::now();
            let exp = tracer.span("probe.shard_compute", || {
                spec_experiment(Some(&[benchmark]), scale, &KINDS, Parallelism::Sequential)
            });
            compute.push(t.elapsed().as_secs_f64() * 1e3);
            tally.record(sweep_ok(&Ok(exp), &[benchmark], rows, scale));
            let t = Instant::now();
            let name = if over_tcp {
                "probe.shard_tcp"
            } else {
                "probe.shard_pipe"
            };
            let reply = tracer.span(name, || conn.run_shard(&spec(i), None, SILENCE));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let result = reply
                .map(|(_, row)| SpecExperiment {
                    scale,
                    rows: vec![row],
                    sanitizers: KINDS.to_vec(),
                })
                .map_err(|e| e.message());
            tally.record(sweep_ok(&result, &[benchmark], rows, scale));
            if over_tcp { &mut tcp } else { &mut pipe }.push(ms);
        }
        conn.shutdown();
    }
    let compute_ms = median(&compute);
    values.insert("sweep.shard_compute_ms", compute_ms);
    values.insert("sweep.shard_rtt_tcp_ms", median(&tcp));
    values.insert("sweep.shard_rtt_pipe_ms", median(&pipe));
    values.insert("sweep.wire_tcp_ms", median(&tcp) - compute_ms);
    values.insert("sweep.wire_pipe_ms", median(&pipe) - compute_ms);
    values.insert("sweep.establish_ms", median(&establish));

    let config = sharded_config(bin_dir, scale);
    let mut sharded = Vec::new();
    for _ in 0..PROBE_SHARDS {
        let t = Instant::now();
        let got = tracer.span("probe.sharded", || {
            sweep::sharded_spec_experiment(Some(&[benchmark]), &KINDS, &config)
                .map_err(|e| e.to_string())
        });
        sharded.push(t.elapsed().as_secs_f64() * 1e3);
        tally.record(sweep_ok(&got, &[benchmark], rows, scale));
    }
    values.insert("sweep.sharded_ms", median(&sharded));

    let (mut bytes, mut encode_ns, mut decode_ns) = (0, 0, 0);
    for row in rows.values() {
        let mut lines = Vec::new();
        let t = Instant::now();
        wire::encode_spec_row(row, &mut lines);
        encode_ns += t.elapsed().as_nanos();
        bytes += lines.iter().map(|l| l.len() + 1).sum::<usize>();
        let t = Instant::now();
        let decoded =
            wire::decode_spec_row(&mut SliceLines::new(&lines)).map_err(|e| e.to_string())?;
        decode_ns += t.elapsed().as_nanos();
        tally.record(sweep_ok(
            &Ok(SpecExperiment {
                scale,
                rows: vec![decoded],
                sanitizers: KINDS.to_vec(),
            }),
            &[&row.name],
            rows,
            scale,
        ));
    }
    let n = rows.len() as f64;
    values.insert("wire.row_bytes", bytes as f64 / n);
    values.insert("wire.encode_us_per_row", encode_ns as f64 / 1e3 / n);
    values.insert("wire.decode_us_per_row", decode_ns as f64 / 1e3 / n);
    Ok(())
}

/// A running daemon over two TCP workers.
struct Fleet {
    daemon: Proc,
    workers: Vec<Proc>,
    addr: String,
}

impl Fleet {
    fn start(bin_dir: &Path) -> Result<Fleet, String> {
        let mut workers = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..2 {
            let mut cmd = Command::new(bin_dir.join("sweep_worker"));
            cmd.args(["--listen", "127.0.0.1:0"]);
            let (proc, addr) = Proc::start(cmd, "listening ")?;
            workers.push(proc);
            addrs.push(addr);
        }
        let mut cmd = Command::new(bin_dir.join("sweep"));
        cmd.args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--tcp-workers",
            &addrs.join(","),
        ]);
        let (daemon, addr) = Proc::start(cmd, "serving ")?;
        Ok(Fleet {
            daemon,
            workers,
            addr,
        })
    }

    /// Peak resident set of the daemon and its workers, in KiB.
    fn hwm_kib(&self) -> u64 {
        std::iter::once(&self.daemon)
            .chain(&self.workers)
            .filter_map(|p| vm_hwm_kib(&p.pid()))
            .sum()
    }

    /// Graceful shutdown; the workers are killed when dropped.
    fn stop(mut self) {
        if let Err(e) = client_shutdown(&self.addr, &ClientOptions::default()) {
            eprintln!("daemon shutdown: {e}");
        }
        self.daemon.wait_or_kill(Duration::from_secs(10));
    }
}

/// One `client_sweep_with` request over `names` at test scale.
fn request(addr: &str, kind: usize, names: &[String], oracle: &HashMap<String, SpecRow>) -> Sample {
    let request = SweepRequest {
        scale: Scale::Test,
        parallelism: Parallelism::Sequential,
        benchmarks: names.to_vec(),
        backends: KINDS.to_vec(),
    };
    let mut rows = Vec::new();
    let start = Instant::now();
    let result = client_sweep_with(addr, &ClientOptions::default(), &request, |_, _| {
        let t = Instant::now();
        rows.push((t, Instant::now()));
    })
    .map_err(|e| e.to_string());
    let end = Instant::now();
    Sample::new(kind, names, (start, end), rows, result, oracle, Scale::Test)
}

/// One client's share of a request cycle: the windows `next` hands out,
/// until every window has been requested once.
fn request_loop(
    addr: &str,
    windows: &[Vec<String>],
    oracle: &HashMap<String, SpecRow>,
    next: &AtomicUsize,
) -> Vec<Sample> {
    let mut out = Vec::new();
    loop {
        let kind = next.fetch_add(1, Ordering::Relaxed);
        if kind >= windows.len() {
            return out;
        }
        out.push(request(addr, kind, &windows[kind], oracle));
    }
}

/// `CLIENTS` closed-loop clients for `seconds`, in rounds of one request
/// cycle each.  Between rounds no request is in flight, and `speed` takes
/// `PAUSE_PROBES` samples while the fleet is idle.
fn drive(
    addr: &str,
    windows: &[Vec<String>],
    oracle: &HashMap<String, SpecRow>,
    seconds: f64,
    speed: &mut HostSpeed,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..PAUSE_PROBES {
            speed.sample();
        }
        let next = AtomicUsize::new(0);
        let round: Vec<Sample> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| scope.spawn(|| request_loop(addr, windows, oracle, &next)))
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        samples.extend(round);
    }
    samples
}

pub fn run_daemon(args: &Args) -> Result<Outcome, String> {
    let windows = daemon_requests(args.seed);
    let rows = oracle_rows(Scale::Test);
    // Set-up starts the fleet and serves one fixed warm-up request, which
    // also connects the daemon to its workers (it dials them on first
    // use).  Each repetition's fleet is killed when the next one starts.
    let warm = [WARMUP[0].to_string()];
    let mut warmups = Vec::new();
    let (setup_s, fleet) = repeated_setup(|| {
        let fleet = Fleet::start(&args.bin_dir)?;
        warmups.push(request(&fleet.addr, 0, &warm, &rows));
        Ok(fleet)
    })?;
    let mut tally = Tally::default();
    for w in &warmups {
        tally.record(w.ok);
    }
    let mut values = Values::new();
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Only the VM run times are scaled by host speed: requests wait on
    // the network, and set-up on process start-up.
    let mut speed = HostSpeed::default();
    let untraced = drive(&fleet.addr, &windows, &rows, phase_s, &mut speed);
    end_to_end(
        &untraced,
        CLIENTS,
        (1.0, speed.scale()),
        &mut tally,
        &mut values,
    );
    if !args.trace {
        values.insert("setup_s", setup_s);
        values.insert(
            "peak_rss_mb",
            (crate::self_hwm_kib() + fleet.hwm_kib()) as f64 / 1024.0,
        );
        fleet.stop();
        println!("{}", speed.report());
        return Ok(Outcome {
            tally,
            values,
            samples: untraced.len(),
        });
    }

    let mut tracer = Tracer::default();
    let traced = drive(&fleet.addr, &windows, &rows, phase_s, &mut speed);
    end_to_end(&traced, CLIENTS, (1.0, 1.0), &mut tally, &mut Values::new());
    trace_samples(&traced, &untraced, &mut tracer, &mut values);
    let first: Vec<f64> = traced
        .iter()
        .filter_map(|s| s.rows.first().map(|r| (r.0 - s.start).as_secs_f64() * 1e3))
        .collect();
    let gaps: Vec<f64> = traced
        .iter()
        .flat_map(|s| {
            s.rows
                .windows(2)
                .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e3)
        })
        .collect();
    values.insert("sweep.first_row_ms_p50", median(&first));
    values.insert("sweep.row_gap_ms_p50", median(&gaps));
    let stats =
        client_stats_with(&fleet.addr, &ClientOptions::default()).map_err(|e| e.to_string())?;
    let workers = &stats.workers;
    values.insert(
        "sweep.shards_completed",
        workers.iter().map(|w| w.completed).sum::<u64>() as f64,
    );
    values.insert(
        "sweep.shard_failures",
        workers.iter().map(|w| w.failed).sum::<u64>() as f64,
    );
    values.insert(
        "sweep.steals",
        workers.iter().map(|w| w.steals).sum::<u64>() as f64,
    );
    values.insert("sweep.busy_rejects", stats.rejected_busy as f64);
    let p50 = workers
        .iter()
        .map(|w| w.shard_latency_us.p50)
        .max()
        .unwrap_or(0);
    values.insert("sweep.shard_us_p50_ceiling", p50 as f64);
    fleet.stop();
    shard_probes(
        &args.bin_dir,
        &windows[0][0],
        Scale::Test,
        &rows,
        &mut tracer,
        &mut tally,
        &mut values,
    )?;
    tracer
        .write_jsonl(&args.trace_out)
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(Outcome {
        tally,
        values,
        samples: untraced.len(),
    })
}

/// Sharded sweeps for `seconds`, calling `between` after each; also
/// returns the median over sweeps of the workers' summed peak resident
/// set (KiB).
fn sweep_loop(
    config: &SweepConfig,
    sweeps: &mut ShardedSweeps,
    oracle: &HashMap<String, SpecRow>,
    seconds: f64,
    hwm: &ChildHwm,
    mut between: impl FnMut(),
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut fleet_kib = Vec::new();
    while samples.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let (kind, names) = sweeps.next().expect("endless stream");
        let t = Instant::now();
        let result =
            sweep::sharded_spec_experiment(Some(&names), &KINDS, config).map_err(|e| e.to_string());
        let end = Instant::now();
        fleet_kib.push(hwm.take_sum_kib() as f64);
        samples.push(Sample::new(
            kind,
            &names,
            (t, end),
            Vec::new(),
            result,
            oracle,
            config.scale,
        ));
        between();
        // Forget the workers of any sweep `between` ran.
        hwm.take_sum_kib();
    }
    (samples, median(&fleet_kib))
}

pub fn run_sharded(args: &Args) -> Result<Outcome, String> {
    let scale = Scale::Small;
    let config = sharded_config(&args.bin_dir, scale);
    let rows = oracle_rows(scale);
    // Set-up runs one fixed warm-up sweep through the same coordinator:
    // worker start, handshake, shards, merge, shutdown.  It repeats
    // between the timed sweeps.
    let warmup = || {
        sweep::sharded_spec_experiment(Some(&WARMUP), &KINDS, &config).map_err(|e| e.to_string())
    };
    let mut setup_times = SetupTimes::default();
    let mut tally = Tally::default();
    let first = setup_times.time(warmup);
    tally.record(sweep_ok(&first, &WARMUP, &rows, scale));
    let mut sweeps = ShardedSweeps::new(args.seed);
    let mut values = Values::new();
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let hwm = ChildHwm::start();
    // Probe samples run between sweeps, when no worker is alive.
    let mut speed = HostSpeed::default();
    let (untraced, fleet_kib) = sweep_loop(&config, &mut sweeps, &rows, phase_s, &hwm, || {
        speed.sample_if_due();
        if setup_times.due() {
            let again = setup_times.time(warmup);
            tally.record(sweep_ok(&again, &WARMUP, &rows, scale));
        }
    });
    // Only the VM run times are scaled by host speed: a sweep, and the
    // set-up's warm-up sweep, spend much of their time starting and
    // talking to workers.
    end_to_end(&untraced, 1, (1.0, speed.scale()), &mut tally, &mut values);
    if !args.trace {
        values.insert("setup_s", setup_times.median());
        values.insert(
            "peak_rss_mb",
            (crate::self_hwm_kib() as f64 + fleet_kib) / 1024.0,
        );
        println!("{}", speed.report());
        return Ok(Outcome {
            tally,
            values,
            samples: untraced.len(),
        });
    }

    let mut tracer = Tracer::default();
    let (traced, _) = sweep_loop(&config, &mut sweeps, &rows, phase_s, &hwm, || ());
    // The probes below time single shards; stop sampling `/proc` first.
    drop(hwm);
    end_to_end(&traced, 1, (1.0, 1.0), &mut tally, &mut Values::new());
    trace_samples(&traced, &untraced, &mut tracer, &mut values);
    let benchmark = untraced[0].names[0].clone();
    shard_probes(
        &args.bin_dir,
        &benchmark,
        scale,
        &rows,
        &mut tracer,
        &mut tally,
        &mut values,
    )?;
    tracer
        .write_jsonl(&args.trace_out)
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(Outcome {
        tally,
        values,
        samples: untraced.len(),
    })
}
