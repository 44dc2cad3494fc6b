//! The repository benchmark.  Run through `python3 perfbench/run.py`,
//! which builds this package and the workspace's `sweep` binaries first:
//!
//! ```text
//! perfbench --workload <spec-ref|bug-matrix|sweep-daemon|sweep-sharded>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--bin-dir <dir with sweep, sweep_worker>] [--trace-out <file>]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! runs the workload untraced for half the time and traced for the other
//! half, writes the spans as JSON lines, and prints every per-layer
//! metric.  The last line of standard output is the result object; the
//! exit code is nonzero when any output check failed.

mod bug_matrix;
mod hooks;
mod host;
mod inputs;
mod layers;
mod metrics;
mod pipeline;
mod spec_ref;
mod speed;
mod stats;
mod sweeps;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use metrics::{Tally, Values};

/// Set-up repetitions of `sweep-daemon`, whose set-up starts the fleet
/// its timed phase then uses: at least `SETUP_MIN_REPS` of them, for at
/// least `SETUP_MIN_S` seconds, before the timed phase.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// The other workloads repeat their set-up between timed operations, at
/// most once per `SETUP_EVERY_S`, so the samples span the whole run and
/// their median averages the host's swings in speed; a block of
/// repetitions before timing can sit entirely in a slow second.
const SETUP_EVERY_S: f64 = 0.25;

/// Environment knobs of the program under test that would change what a
/// run measures; the benchmark clears them for itself and its children.
const KNOBS: &[&str] = &[
    "SAN_BACKENDS",
    "SAN_NO_HOIST",
    "SAN_PARALLEL",
    "SAN_TRACE",
    "SAN_WORKER",
    "SWEEP_CHAOS",
    "SWEEP_TOKEN",
    "SWEEP_TRACE",
    "SWEEP_WORKER_BIN",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub trace_out: PathBuf,
}

pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// Timed operations behind the untraced latency percentiles.
    pub samples: usize,
}

/// Timed repetitions of a workload's set-up; `setup_s` is their median.
pub struct SetupTimes {
    times: Vec<f64>,
    last: Instant,
}

impl Default for SetupTimes {
    fn default() -> Self {
        SetupTimes {
            times: Vec::new(),
            last: Instant::now(),
        }
    }
}

impl SetupTimes {
    /// Run `setup` once, timed.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = setup();
        self.times.push(start.elapsed().as_secs_f64());
        self.last = Instant::now();
        out
    }

    /// Whether a timed loop should repeat the set-up before its next
    /// operation (see `SETUP_EVERY_S`).
    pub fn due(&self) -> bool {
        self.last.elapsed().as_secs_f64() >= SETUP_EVERY_S
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.times)
    }
}

/// Run `setup` repeatedly (see `SETUP_MIN_S`) and return the median
/// seconds it took and its last result; earlier results are dropped
/// before the next repetition starts.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    loop {
        let out = times.time(&mut setup)?;
        if times.times.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return Ok((times.median(), out));
        }
    }
}

pub fn self_hwm_kib() -> u64 {
    host::vm_hwm_kib("self").unwrap_or(0)
}

pub fn self_hwm_mb() -> f64 {
    self_hwm_kib() as f64 / 1024.0
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    let mut trace_out = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--bin-dir" => bin_dir = PathBuf::from(value),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace_out = trace_out.unwrap_or_else(|| {
        PathBuf::from(format!("perfbench/out/trace-{workload}-seed{seed}.jsonl"))
    });
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        bin_dir,
        trace_out,
    })
}

fn main() {
    for knob in KNOBS {
        std::env::remove_var(knob);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "spec-ref" => spec_ref::run(&args),
        "bug-matrix" => bug_matrix::run(&args),
        "sweep-daemon" => sweeps::run_daemon(&args),
        "sweep-sharded" => sweeps::run_sharded(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "host {}",
        host::fingerprint(&args.workload, args.seed, args.trace, outcome.samples)
    );
    match metrics::result_line(outcome.tally, args.trace, &outcome.values) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if outcome.tally.failed > 0 {
        std::process::exit(1);
    }
}
