//! # sweep
//!
//! Process- and TCP-sharded (benchmark × backend) sweeps: the scaling
//! step after the thread-parallel matrix, and the on-ramp to
//! multi-machine runs.
//!
//! One scheduler ([`serve`]) runs every sweep mode.  A one-shot sweep
//! ([`sharded_spec_experiment`] / [`sharded_tool_comparison`], or the
//! `sweep` CLI bin) is that scheduler serving exactly one request and
//! draining from the start; the `sweep serve` daemon
//! ([`serve::serve_forever`]) serves many clients until it is shut down.
//! The scheduler partitions the matrix into shards
//! ([`shard::plan_shards`]), feeds them to worker processes (the
//! `sweep_worker` bin, `SAN_WORKER=1` re-exec, or `sweep_worker --listen`
//! over TCP) through a versioned line-oriented protocol ([`wire`]),
//! re-queues the shard of any crashed or misbehaving worker (bounded by
//! [`SweepConfig::max_attempts`]), and merges the fragments into the same
//! `SpecRow`/`SpecExperiment` shapes the in-process sweep produces.
//!
//! Because every per-backend run owns an isolated simulated address space,
//! sharding changes *where* a cell of the matrix executes but never *what*
//! it produces: `tests/sharded_sweep.rs` asserts merged sharded results are
//! byte-identical to both the thread-parallel and the sequential runs for
//! every backend in the registry.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod chaos;
pub mod check;
pub mod coordinator;
pub mod json;
pub mod net;
pub mod serve;
pub mod shard;
pub mod wire;
pub mod worker;

pub use backoff::Backoff;
pub use chaos::{Chaos, CHAOS_ENV};
pub use check::{diff_experiments, diff_reports};
pub use coordinator::{
    sharded_spec_experiment, sharded_tool_comparison, ShardStrategy, SweepConfig, SweepError,
    WorkerLaunch,
};
pub use net::{
    client_shutdown, client_stats, client_stats_with, client_sweep, client_sweep_with,
    token_from_env, ClientError, ClientOptions, TOKEN_ENV,
};
pub use shard::{merge_experiment, plan_shards, MergeError, Shard};
pub use wire::{ServiceStats, SweepRequest, WireError, HANDSHAKE, WIRE_VERSION};
