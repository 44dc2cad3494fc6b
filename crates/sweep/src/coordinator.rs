//! One-shot sharded sweeps: their configuration ([`SweepConfig`],
//! [`WorkerLaunch`], [`ShardStrategy`]), their errors ([`SweepError`]),
//! and the entry points [`sharded_spec_experiment`] /
//! [`sharded_tool_comparison`].
//!
//! A one-shot sweep is the daemon's scheduler ([`crate::serve`]) serving
//! exactly one request and draining from the start: one fleet slot per
//! spawned worker process, or one per [`WorkerLaunch::Tcp`] address, fed
//! from the same job board under the same retry rules.  A shard that
//! fails [`SweepConfig::max_attempts`] times aborts the sweep with
//! [`SweepError::ShardExhausted`] (or [`SweepError::ShardTimedOut`] when
//! the last failure was [`SweepConfig::shard_timeout`] expiring).  A TCP
//! address that refuses connections retires its slot, and the surviving
//! slots absorb its shards; when none survive, the sweep fails with
//! [`SweepError::Spawn`].

use std::path::PathBuf;
use std::process::{Command as ProcessCommand, Stdio};
use std::time::Duration;

use effective_san::{sanitizers_with_baseline, Parallelism, SpecExperiment, ToolComparison};
use san_api::SanitizerKind;
use workloads::{Scale, SpecBenchmark};

use crate::net::token_from_env;
use crate::shard::MergeError;

/// How a one-shot sweep hands shards to its slots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Shards are pinned to slots round-robin up front; each slot runs
    /// exactly its own partition (retries stay on the same slot, on a
    /// fresh connection, until the slot itself retires).
    Static,
    /// Idle workers pull the next shard from a shared queue — the default,
    /// since it rides out skew in per-shard cost.
    #[default]
    WorkQueue,
}

impl std::str::FromStr for ShardStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_lowercase().as_str() {
            "static" => Ok(ShardStrategy::Static),
            "queue" | "work-queue" | "workqueue" => Ok(ShardStrategy::WorkQueue),
            other => Err(format!(
                "unknown shard strategy `{other}` (accepted: `static`, `queue`)"
            )),
        }
    }
}

/// How worker sessions are established.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerLaunch {
    /// Spawn the given executable (the `sweep_worker` bin).
    Bin(PathBuf),
    /// Re-exec the current executable with `SAN_WORKER=1`; only correct
    /// for binaries that check [`crate::worker::WORKER_ENV`] on startup,
    /// like the `sweep` CLI.
    ReExec,
    /// Connect to listening `sweep_worker --listen` processes over TCP,
    /// one worker slot per address (the slot count is the fleet size;
    /// [`SweepConfig::workers`] is ignored in this mode).
    Tcp(Vec<String>),
}

impl WorkerLaunch {
    /// Resolve the launch mode from the environment: an explicit
    /// `SWEEP_WORKER_BIN` path wins; otherwise a `sweep_worker` binary
    /// next to the current executable; otherwise re-exec.
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] when `SWEEP_WORKER_BIN` names a path that
    /// does not exist — failing here, at config time, instead of
    /// consuming [`SweepConfig::max_attempts`] spawn failures per shard.
    pub fn detect() -> Result<WorkerLaunch, SweepError> {
        if let Ok(path) = std::env::var("SWEEP_WORKER_BIN") {
            let path = PathBuf::from(path);
            if !path.exists() {
                return Err(SweepError::Config {
                    message: format!(
                        "SWEEP_WORKER_BIN points at `{}`, which does not exist",
                        path.display()
                    ),
                });
            }
            return Ok(WorkerLaunch::Bin(path));
        }
        if let Ok(exe) = std::env::current_exe() {
            if let Some(dir) = exe.parent() {
                let sibling = dir.join(format!("sweep_worker{}", std::env::consts::EXE_SUFFIX));
                if sibling.exists() {
                    return Ok(WorkerLaunch::Bin(sibling));
                }
            }
        }
        Ok(WorkerLaunch::ReExec)
    }

    /// Validate the launch mode without spawning anything, so a sweep
    /// fails before any process exists when the config cannot work.
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] for a nonexistent worker binary or an empty
    /// TCP address list.
    pub fn validate(&self) -> Result<(), SweepError> {
        match self {
            WorkerLaunch::Bin(path) if !path.exists() => Err(SweepError::Config {
                message: format!("worker binary `{}` does not exist", path.display()),
            }),
            WorkerLaunch::Tcp(addrs) if addrs.is_empty() => Err(SweepError::Config {
                message: "WorkerLaunch::Tcp needs at least one worker address".to_string(),
            }),
            _ => Ok(()),
        }
    }

    pub(crate) fn command(&self, env: &[(String, String)]) -> Result<ProcessCommand, String> {
        let mut cmd = match self {
            WorkerLaunch::Bin(path) => ProcessCommand::new(path),
            WorkerLaunch::ReExec => {
                let mut cmd = ProcessCommand::new(
                    std::env::current_exe()
                        .map_err(|e| format!("cannot locate current executable: {e}"))?,
                );
                cmd.env(crate::worker::WORKER_ENV, "1");
                cmd
            }
            WorkerLaunch::Tcp(_) => unreachable!("TCP workers are connected, not spawned"),
        };
        for (key, value) in env {
            cmd.env(key, value);
        }
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        Ok(cmd)
    }
}

/// Configuration of a sharded sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Number of worker processes (ignored for [`WorkerLaunch::Tcp`],
    /// where the address list is the fleet).
    pub workers: usize,
    /// Shard scheduling mode.
    pub strategy: ShardStrategy,
    /// Attempts per shard before the sweep aborts (spawn failures, worker
    /// crashes and timeouts all consume an attempt).
    pub max_attempts: usize,
    /// Workload scale.
    pub scale: Scale,
    /// In-worker threading for each shard's backend fan-out (workers
    /// honour `SAN_PARALLEL` through this, like the in-process sweeps).
    pub parallelism: Parallelism,
    /// How to launch worker processes.
    pub worker: WorkerLaunch,
    /// Extra environment variables set on every worker process (on top of
    /// the inherited environment) — used by tests to inject failures and
    /// by callers to forward `SAN_*` overrides explicitly.
    pub worker_env: Vec<(String, String)>,
    /// Overall budget for one shard attempt: a worker still holding a
    /// shard past this is torn down and the shard re-queued (consuming an
    /// attempt).  Heartbeats do **not** extend it.  `None` = unbounded,
    /// the pre-service behaviour.
    pub shard_timeout: Option<Duration>,
    /// Per-read silence deadline: a worker that sends *nothing* — not
    /// even a heartbeat — for this long counts as dead.  Heartbeats reset
    /// it.  `None` = wait forever (fine for pipes, where worker death is
    /// observable as EOF; TCP callers should set it).
    pub silence_timeout: Option<Duration>,
    /// Shared auth token presented to (and required of) every worker —
    /// the wire-v7 `auth` frame.  `None` disables authentication.
    /// Spawned pipe workers inherit this process's environment, so the
    /// [`crate::net::TOKEN_ENV`] default matches on both sides.
    pub token: Option<String>,
}

impl SweepConfig {
    /// A configuration with `workers` processes at `scale`, the shared
    /// work queue, 3 attempts per shard, `SAN_PARALLEL`-resolved in-worker
    /// threading, auto-detected worker launch, and no deadlines.
    ///
    /// # Panics
    ///
    /// Panics when `SWEEP_WORKER_BIN` names a nonexistent path (the
    /// config-time rejection [`WorkerLaunch::detect`] performs); CLIs that
    /// want a clean exit should call `detect()` themselves.
    pub fn new(workers: usize, scale: Scale) -> SweepConfig {
        SweepConfig {
            workers,
            strategy: ShardStrategy::default(),
            max_attempts: 3,
            scale,
            parallelism: Parallelism::from_env(),
            worker: WorkerLaunch::detect().unwrap_or_else(|e| panic!("{e}")),
            worker_env: Vec::new(),
            shard_timeout: None,
            silence_timeout: None,
            token: token_from_env(),
        }
    }
}

/// Errors a sharded sweep can surface.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// The sweep configuration cannot work (nonexistent worker binary,
    /// empty TCP fleet) — detected before any worker is started.
    Config {
        /// The rendered problem.
        message: String,
    },
    /// A worker process could not be spawned at all, or every TCP worker
    /// became unreachable while work remained.
    Spawn {
        /// The rendered failure.
        message: String,
    },
    /// A shard kept failing after being reassigned to fresh workers.
    ShardExhausted {
        /// The failing shard's id.
        shard_id: usize,
        /// The benchmark the shard runs.
        benchmark: String,
        /// How many attempts were made.
        attempts: usize,
        /// The last attempt's failure, rendered.
        last_error: String,
    },
    /// A shard kept blowing the [`SweepConfig::shard_timeout`] budget —
    /// the last of its attempts ended with the deadline expiring, not a
    /// crash.
    ShardTimedOut {
        /// The failing shard's id.
        shard_id: usize,
        /// The benchmark the shard runs.
        benchmark: String,
        /// How many attempts were made.
        attempts: usize,
        /// The per-attempt budget that kept expiring.
        timeout: Duration,
    },
    /// Worker results could not be merged back into experiment rows.
    Merge(MergeError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Config { message } => write!(f, "invalid sweep config: {message}"),
            SweepError::Spawn { message } => write!(f, "failed to spawn worker: {message}"),
            SweepError::ShardExhausted {
                shard_id,
                benchmark,
                attempts,
                last_error,
            } => write!(
                f,
                "shard {shard_id} (benchmark `{benchmark}`) failed after {attempts} attempts; \
                 last error: {last_error}"
            ),
            SweepError::ShardTimedOut {
                shard_id,
                benchmark,
                attempts,
                timeout,
            } => write!(
                f,
                "shard {shard_id} (benchmark `{benchmark}`) timed out after {attempts} attempts \
                 of {}ms each",
                timeout.as_millis()
            ),
            SweepError::Merge(e) => write!(f, "merge failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<MergeError> for SweepError {
    fn from(e: MergeError) -> Self {
        SweepError::Merge(e)
    }
}

/// Resolve the benchmark list for a sweep (`None` = all 19, like
/// `spec_experiment`), validating names up front so a typo fails before
/// any process is spawned.
///
/// # Panics
///
/// Panics on an unknown benchmark name, with the same message shape as
/// `spec_experiment`.
fn resolve_benchmarks(names: Option<&[&str]>) -> Vec<String> {
    match names {
        Some(names) => names
            .iter()
            .map(|n| {
                SpecBenchmark::by_name(n)
                    .unwrap_or_else(|| {
                        panic!(
                            "unknown SPEC-like benchmark `{n}` (known: {})",
                            SpecBenchmark::names().join(", ")
                        )
                    })
                    .name
                    .to_string()
            })
            .collect(),
        None => SpecBenchmark::names()
            .into_iter()
            .map(|n| n.to_string())
            .collect(),
    }
}

/// Run the (benchmark × backend) matrix sharded across worker processes
/// (or a TCP worker fleet) and merge the results into the same
/// [`SpecExperiment`] shape — with the same bytes — as the in-process
/// `spec_experiment`.
///
/// # Errors
///
/// [`SweepError::Config`] when the launch mode cannot work (checked
/// before anything is spawned); [`SweepError::ShardExhausted`] /
/// [`SweepError::ShardTimedOut`] when a shard keeps failing across
/// [`SweepConfig::max_attempts`] fresh workers; [`SweepError::Spawn`]
/// when the whole TCP fleet becomes unreachable; [`SweepError::Merge`]
/// when the returned fragments do not reassemble (worker-side
/// misbehaviour, not a data-dependent condition).
///
/// # Panics
///
/// Panics on an unknown benchmark name, like `spec_experiment`.
pub fn sharded_spec_experiment(
    names: Option<&[&str]>,
    sanitizers: &[SanitizerKind],
    config: &SweepConfig,
) -> Result<SpecExperiment, SweepError> {
    config.worker.validate()?;
    crate::serve::sweep_once(config, resolve_benchmarks(names), sanitizers)
}

/// The §6.2 tool comparison computed from a process-sharded sweep: the
/// uninstrumented baseline is prepended as the overhead reference, the
/// sharded experiment runs, and per-tool means are derived from the merged
/// rows — mirroring `tool_comparison_with`.
///
/// # Errors
///
/// Propagates [`sharded_spec_experiment`]'s errors.
pub fn sharded_tool_comparison(
    names: &[&str],
    sanitizers: &[SanitizerKind],
    config: &SweepConfig,
) -> Result<ToolComparison, SweepError> {
    let kinds = sanitizers_with_baseline(sanitizers);
    let experiment = sharded_spec_experiment(Some(names), &kinds, config)?;
    let tools = kinds
        .into_iter()
        .skip(1)
        .map(|kind| {
            (
                kind,
                experiment.mean_overhead_pct(kind),
                experiment.total_checks(kind),
            )
        })
        .collect();
    Ok(ToolComparison { tools })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parses_both_modes() {
        assert_eq!("static".parse::<ShardStrategy>(), Ok(ShardStrategy::Static));
        assert_eq!(
            "queue".parse::<ShardStrategy>(),
            Ok(ShardStrategy::WorkQueue)
        );
        assert_eq!(
            "Work-Queue".parse::<ShardStrategy>(),
            Ok(ShardStrategy::WorkQueue)
        );
        let err = "chaos".parse::<ShardStrategy>().unwrap_err();
        assert!(err.contains("chaos"));
        assert!(err.contains("static"));
    }

    fn test_config(worker: WorkerLaunch) -> SweepConfig {
        SweepConfig {
            workers: 1,
            strategy: ShardStrategy::WorkQueue,
            max_attempts: 2,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            worker,
            worker_env: Vec::new(),
            shard_timeout: None,
            silence_timeout: None,
            token: None,
        }
    }

    #[test]
    fn nonexistent_worker_bin_is_rejected_at_config_time() {
        // No spawning, no per-shard attempts: the sweep refuses up front.
        let config = test_config(WorkerLaunch::Bin(PathBuf::from(
            "/nonexistent/sweep_worker",
        )));
        let err =
            sharded_spec_experiment(Some(&["mcf"]), &[SanitizerKind::None], &config).unwrap_err();
        match err {
            SweepError::Config { ref message } => {
                assert!(message.contains("/nonexistent/sweep_worker"), "{message}");
            }
            other => panic!("expected Config, got {other}"),
        }
    }

    #[test]
    fn nonexistent_sweep_worker_bin_env_fails_detect() {
        // `detect` is env-driven; validate the same rule through the
        // lower-level `validate` to stay hermetic (no global env writes
        // in a threaded test binary).
        let err = WorkerLaunch::Bin(PathBuf::from("/nonexistent/from-env"))
            .validate()
            .unwrap_err();
        assert!(matches!(err, SweepError::Config { .. }), "{err}");
    }

    #[test]
    fn empty_tcp_fleet_is_rejected_at_config_time() {
        let config = test_config(WorkerLaunch::Tcp(Vec::new()));
        let err =
            sharded_spec_experiment(Some(&["mcf"]), &[SanitizerKind::None], &config).unwrap_err();
        assert!(matches!(err, SweepError::Config { .. }), "{err}");
    }

    #[test]
    fn runtime_spawn_failures_surface_as_shard_exhaustion() {
        // A path that exists but is not executable passes config-time
        // validation and fails at spawn — consuming attempts like any
        // other per-shard failure.
        let config = test_config(WorkerLaunch::Bin(
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"),
        ));
        let err =
            sharded_spec_experiment(Some(&["mcf"]), &[SanitizerKind::None], &config).unwrap_err();
        match err {
            SweepError::ShardExhausted {
                attempts,
                benchmark,
                ..
            } => {
                assert_eq!(attempts, 2);
                assert_eq!(benchmark, "mcf");
            }
            other => panic!("expected ShardExhausted, got {other}"),
        }
    }

    #[test]
    fn unreachable_tcp_fleet_fails_instead_of_hanging() {
        // Port 1 on localhost refuses connections: both slots retire and
        // the sweep aborts with a fleet-level error (or exhaustion if the
        // shard burns its attempts first).
        let config = SweepConfig {
            max_attempts: 4,
            ..test_config(WorkerLaunch::Tcp(vec![
                "127.0.0.1:1".to_string(),
                "127.0.0.1:1".to_string(),
            ]))
        };
        let err =
            sharded_spec_experiment(Some(&["mcf"]), &[SanitizerKind::None], &config).unwrap_err();
        match err {
            SweepError::Spawn { ref message } => {
                assert!(message.contains("unreachable"), "{message}");
            }
            SweepError::ShardExhausted { .. } => {}
            other => panic!("expected Spawn or ShardExhausted, got {other}"),
        }
    }
}
