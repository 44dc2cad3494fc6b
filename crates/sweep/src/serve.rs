//! The sweep scheduler, and the `sweep serve` daemon built on it.
//!
//! One scheduler serves every sweep mode.  The daemon ([`serve_forever`])
//! accepts sweep requests from many concurrent clients over TCP; a
//! one-shot `sweep --workers N` or `--tcp-workers` run
//! ([`crate::sharded_spec_experiment`]) is the same scheduler serving
//! exactly one request and draining from the start.
//!
//! The **board** is one global queue of jobs — a job is one shard of one
//! request, planned by [`crate::shard::plan_shards`] — shared by every
//! request.  Each fleet slot runs one loop: pull a job, run it on the
//! slot's worker connection, deliver or re-queue the outcome.  Pulls
//! follow **result affinity**: the first slot to run a chunk of a
//! `(request, benchmark)` pair claims the pair, and its remaining chunks
//! prefer that slot — stolen only by a slot with nothing else to do,
//! which moves the claim wholesale.  A job **pinned** to a slot
//! (`--strategy static`) is never picked by any other slot.
//!
//! Slots differ only in how they get a connection, and that source, with
//! the drain state, decides what a failed attempt costs:
//!
//! * a **spawned** pipe worker whose spawn fails burns an attempt and
//!   respawns under the shared [`Backoff`] schedule;
//! * a **dial-out** address (`--tcp-workers`) that refuses the dial burns
//!   nothing: the slot redials under backoff while the scheduler serves,
//!   and retires while it drains;
//! * a **registered** worker (`sweep_worker --join` dialling
//!   `--register-listen`) retires on its first failure.
//!
//! Any other failure — a crash, a garbled line, silence past the
//! deadline, a blown shard budget — burns an attempt and re-queues the
//! job; a job out of attempts fails only its own request (`sfail`), never
//! the daemon.  A retiring slot unpins its jobs, so the survivors take
//! them.  When the last live slot retires with work still queued, every
//! pending request fails with the last error instead of waiting forever.
//!
//! Every connection class — client, dial-out worker, registered worker —
//! is gated by the optional shared token (wire-v7 `auth` frame): a
//! mismatch gets a structured `authfail` before any capability exchange,
//! and the token itself never appears in traces, stats, or errors.
//! Admission control bounds the daemon's intake: past `--max-pending`
//! requests or `--max-queued-jobs` planned jobs, new requests are turned
//! away with a structured `busy` frame carrying a retry hint instead of
//! being queued without bound.  A `shutdown` control frame (token-gated
//! like everything else) stops intake, drains in-flight requests to
//! their structured end, releases the fleet, and lets the process exit 0.
//! A client's whole opening (handshake, `auth`, first line, request
//! block) must arrive within 5 s of the accept, so a socket that
//! connects and never writes, or trickles a byte at a time, cannot hold
//! that drain open.
//!
//! Rows stream back incrementally: as soon as every chunk of one
//! benchmark has arrived, the fragments are merged (the same
//! [`crate::shard::merge_experiment`] a whole sweep would use) and the
//! row goes out — as an `srow` event tagged with its request-order index
//! for a daemon client — the byte-identical-merge SLA, kept one row at a
//! time.  A client that disconnects mid-stream has its request cancelled
//! and its queued shards dropped.
//!
//! Fault isolation: a panic in one client or slot thread fails only the
//! affected request — slot threads convert panics into failed shard
//! attempts, client threads answer theirs with a structured `sfail` —
//! and the shared board recovers from mutex poisoning instead of letting
//! one dead thread wedge every other request behind a poisoned lock.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use effective_san::{Parallelism, SpecExperiment, SpecRow};
use obs::{sweep_tracer, Counter, Gauge, Histogram};
use san_api::SanitizerKind;
use workloads::{Scale, SpecBenchmark};

use crate::backoff::Backoff;
use crate::coordinator::{ShardStrategy, SweepConfig, SweepError, WorkerLaunch};
use crate::net::{
    accept_opening, accept_socket, token_from_env, AttemptError, PipeTransport, TcpTransport,
    Transport, WorkerConn, OPENING_TIMEOUT,
};
use crate::shard::{merge_experiment, plan_shards, MergeError, Shard};
use crate::wire::{self, OpeningError, ServiceEvent, ShardSpec, SweepRequest};

/// Configuration of a [`serve_forever`] daemon.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to accept client connections on (`host:port`; port `0`
    /// binds an ephemeral port, printed in the `serving` line).
    pub listen: String,
    /// Address to accept `sweep_worker --join` registrations on
    /// (printed in the `registering` line).  `None` disables dial-in
    /// registration.
    pub register_listen: Option<String>,
    /// Dial-out worker fleet addresses (each a `sweep_worker --listen`
    /// process).  May be empty when `register_listen` is set.
    pub workers: Vec<String>,
    /// Shared auth token required of every connection (worker, client,
    /// registration).  `None` disables authentication.
    pub token: Option<String>,
    /// Attempts per shard before its request fails.
    pub max_attempts: usize,
    /// Per-attempt budget for one shard (heartbeats do not extend it).
    pub shard_timeout: Option<Duration>,
    /// Per-read silence deadline on worker connections; heartbeats reset
    /// it, so it catches dead peers, not slow shards.
    pub silence_timeout: Option<Duration>,
    /// Bound on concurrently admitted requests; past it new requests
    /// get a structured `busy` reject.  `None` means unbounded.
    pub max_pending: Option<usize>,
    /// Bound on planned jobs (queued + in flight); a request whose
    /// shards would exceed it gets a `busy` reject — unless the daemon
    /// is idle, which always admits (no request may be unservable
    /// merely for being larger than the bound).  `None` means unbounded.
    pub max_queued_jobs: Option<usize>,
}

impl ServeOptions {
    /// Defaults for a daemon at `listen` over `workers`: 3 attempts per
    /// shard, no shard budget, a 10s silence deadline (workers heartbeat
    /// every [`crate::net::HEARTBEAT_INTERVAL`] while busy, so only a
    /// dead peer can go silent that long), no registration listener, no
    /// admission bounds, and the token from [`crate::net::TOKEN_ENV`].
    pub fn new(listen: String, workers: Vec<String>) -> ServeOptions {
        ServeOptions {
            listen,
            register_listen: None,
            workers,
            token: token_from_env(),
            max_attempts: 3,
            shard_timeout: None,
            silence_timeout: Some(Duration::from_secs(10)),
            max_pending: None,
            max_queued_jobs: None,
        }
    }
}

/// Render a `catch_unwind` payload for a structured service error (the
/// standard payloads are `&str` / `String`; anything else gets a generic
/// description rather than being dropped).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One schedulable unit on the global queue: a shard of one request.
struct Job {
    req_id: u64,
    scale: Scale,
    parallelism: Parallelism,
    shard: Shard,
    attempts: usize,
    /// `Some(slot)` pins the job to one slot (`ShardStrategy::Static`).
    pinned: Option<usize>,
}

/// What a slot reports back to a request's row stream.
enum JobOutcome {
    /// One chunk's fragment, ready for per-benchmark merging.
    Fragment {
        benchmark: String,
        chunk: usize,
        row: SpecRow,
    },
    /// The request cannot complete.
    End(Halt),
}

/// Why one request's row stream ended early.
enum Halt {
    /// A job ran out of attempts; the error is its last failure.
    Exhausted(Box<Job>, AttemptError),
    /// Nothing is left to run the request (no live slot, or shutdown).
    Failed(String),
    /// A benchmark's fragments did not reassemble.
    Merge(MergeError),
    /// The row consumer hung up.
    Gone,
}

/// How a fleet slot gets its worker connection: the one thing that
/// differs between slots, and (with the drain state) what decides the
/// cost of a failed attempt.
enum SlotSource {
    /// Spawn a worker process and talk over its stdio pipes.
    Spawn(WorkerLaunch, Vec<(String, String)>),
    /// Dial a `sweep_worker --listen` address.
    Dial(String),
    /// A worker that registered itself: its one connection is the slot.
    Registered,
}

/// Progress of one live request, maintained alongside its result channel
/// and surfaced through the `stats` frame.
struct Progress {
    benchmarks: u64,
    jobs_total: u64,
    jobs_done: u64,
}

#[derive(Default)]
struct Board {
    queue: VecDeque<Job>,
    /// Jobs checked out by fleet threads and not yet delivered or
    /// re-queued — what the shutdown drain waits on.
    in_flight: usize,
    /// `(req_id, benchmark)` → the worker slot that claimed the pair.
    affinity: HashMap<(u64, String), usize>,
    /// Live requests' result channels, keyed by request id.
    requests: HashMap<u64, mpsc::Sender<JobOutcome>>,
    /// Live requests' job progress, keyed by request id.
    progress: HashMap<u64, Progress>,
    /// Requests whose client vanished or whose sweep already failed:
    /// their queued shards are dropped instead of run.
    cancelled: HashSet<u64>,
}

/// What the admission gate decided for one incoming request.
enum Admission {
    /// Queue it.
    Proceed,
    /// Turn it away with a structured `busy` frame.
    Busy {
        retry_after_ms: u64,
        message: String,
    },
    /// The daemon is draining; answer with a structured `sfail`.
    ShuttingDown,
}

/// Lock-cheap live telemetry for one worker slot: every field is an
/// atomic `obs` primitive, so fleet threads update them without touching
/// the board lock and the stats snapshot reads them without stalling
/// anyone.
struct WorkerTelemetry {
    /// The worker's address as the slot dials it (dial-out), saw it
    /// connect (registered), or `pipe` for a spawned worker.
    addr: String,
    /// Whether the slot joined via the registration listener.
    registered: bool,
    /// 1 while the slot is serviceable; 0 once it retired or drained.
    live: Gauge,
    /// 1 while the slot is running a shard attempt, 0 while idle.
    busy: Gauge,
    /// Shards this slot completed successfully.
    completed: Counter,
    /// Shard attempts this slot failed (retries and exhaustions alike).
    failed: Counter,
    /// Jobs this slot stole from another slot's claimed pair.
    steals: Counter,
    /// Heartbeat arrival gaps on this slot's connection, in µs (shared
    /// with the slot's [`WorkerConn`] via [`WorkerConn::observe_heartbeats`]).
    hb_gaps: Arc<Histogram>,
    /// Per-shard wall latency on this slot, in µs.
    latency: Histogram,
}

impl WorkerTelemetry {
    fn new(addr: &str, registered: bool) -> WorkerTelemetry {
        let live = Gauge::new();
        live.set(1);
        WorkerTelemetry {
            addr: addr.to_string(),
            registered,
            live,
            busy: Gauge::new(),
            completed: Counter::new(),
            failed: Counter::new(),
            steals: Counter::new(),
            hb_gaps: Arc::new(Histogram::new()),
            latency: Histogram::new(),
        }
    }
}

/// The scheduler: the board, its condvar, the options every thread
/// needs, and the fleet's live telemetry (all-atomic, read by the
/// daemon's `stats` frame).
struct Scheduler {
    board: Mutex<Board>,
    work_ready: Condvar,
    options: ServeOptions,
    /// One telemetry block per fleet slot, in slot order.  Append-only:
    /// dial-out slots at construction, the rest as they join (a retired
    /// slot keeps its index, with `live` at 0).
    telemetry: Mutex<Vec<Arc<WorkerTelemetry>>>,
    /// Set once by the `shutdown` control frame (from the start for a
    /// one-shot sweep); every loop drains.
    shutting_down: AtomicBool,
    /// The daemon's own bound addresses, self-connected on shutdown to
    /// wake the blocking accept loops.
    wake_addrs: Mutex<Vec<String>>,
    /// Client connections accepted since the daemon started.
    clients_total: Counter,
    /// Sweep requests accepted since the daemon started.
    requests_total: Counter,
    /// Requests that ended in a structured `sfail`.
    requests_failed: Counter,
    /// Requests cancelled because their client vanished mid-stream.
    requests_cancelled: Counter,
    /// Requests turned away with a `busy` frame.
    rejected_busy: Counter,
}

impl Scheduler {
    fn new(options: ServeOptions) -> Scheduler {
        let telemetry = options
            .workers
            .iter()
            .map(|addr| Arc::new(WorkerTelemetry::new(addr, false)))
            .collect();
        Scheduler {
            board: Mutex::new(Board::default()),
            work_ready: Condvar::new(),
            options,
            telemetry: Mutex::new(telemetry),
            shutting_down: AtomicBool::new(false),
            wake_addrs: Mutex::new(Vec::new()),
            clients_total: Counter::new(),
            requests_total: Counter::new(),
            requests_failed: Counter::new(),
            requests_cancelled: Counter::new(),
            rejected_busy: Counter::new(),
        }
    }

    /// Lock the board, recovering from poisoning.  Every board mutation
    /// is completed before its guard drops (no invariant is ever left
    /// half-updated across a call that can panic), so a thread that dies
    /// while holding the lock leaves a consistent board behind — clearing
    /// the poison keeps the daemon and every other request alive instead
    /// of cascading one thread's panic into a fleet-wide wedge.
    fn lock_board(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every slot's telemetry block, in slot order.  The vec is
    /// append-only, so a slot's index is stable for its lifetime.
    fn slots(&self) -> MutexGuard<'_, Vec<Arc<WorkerTelemetry>>> {
        self.telemetry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The telemetry block of one slot.
    fn telemetry(&self, slot: usize) -> Arc<WorkerTelemetry> {
        self.slots()[slot].clone()
    }

    /// Append a new fleet slot (a registered worker joining at runtime,
    /// or a one-shot sweep's slot) and return its index and telemetry.
    fn add_slot(&self, addr: &str, registered: bool) -> (usize, Arc<WorkerTelemetry>) {
        let mut slots = self.slots();
        let block = Arc::new(WorkerTelemetry::new(addr, registered));
        slots.push(block.clone());
        (slots.len() - 1, block)
    }

    /// How many slots are currently serviceable.
    fn live_workers(&self) -> usize {
        self.slots().iter().filter(|t| t.live.get() != 0).count()
    }

    fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flip the daemon into draining mode (idempotent): stop admitting,
    /// wake every parked loop, and — when no worker could ever drain the
    /// queue — fail the pending requests instead of hanging them.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        eprintln!("sweep serve: shutdown requested; draining in-flight work");
        sweep_tracer().event(
            "serve_shutdown",
            &[("live_workers", self.live_workers().into())],
        );
        if self.live_workers() == 0 {
            self.fail_pending("daemon is shutting down with no live workers");
        }
        self.work_ready.notify_all();
        // Accept loops block in `incoming()`; a throwaway self-connect
        // makes them return once so they can observe the flag.
        let wake = self
            .wake_addrs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for addr in wake {
            let _ = TcpStream::connect(&addr);
        }
    }

    /// Fail every pending request with `message` when work is queued that
    /// no live slot will ever run.
    fn fail_pending(&self, message: &str) {
        let mut board = self.lock_board();
        if board.queue.is_empty() {
            return;
        }
        board.queue.clear();
        for tx in board.requests.values() {
            let _ = tx.send(JobOutcome::End(Halt::Failed(message.to_string())));
        }
    }

    /// Take slot `slot` out of the fleet: unpin its queued jobs (the one
    /// it just re-queued included) and drop its claims, so the survivors
    /// take them over.  The last live slot to retire with work still
    /// queued fails every pending request.
    fn retire(&self, slot: usize, telemetry: &WorkerTelemetry, last_error: &str) {
        telemetry.live.set(0);
        eprintln!("sweep: worker {} retired: {last_error}", telemetry.addr);
        sweep_tracer().event(
            "serve_worker_depart",
            &[
                ("slot", slot.into()),
                ("addr", telemetry.addr.as_str().into()),
                ("error", last_error.into()),
            ],
        );
        {
            let mut board = self.lock_board();
            for job in board.queue.iter_mut().filter(|j| j.pinned == Some(slot)) {
                job.pinned = None;
            }
            board.affinity.retain(|_, claimant| *claimant != slot);
        }
        if self.live_workers() == 0 {
            self.fail_pending(&format!(
                "every TCP worker became unreachable with work remaining; last error: {last_error}"
            ));
        }
        self.work_ready.notify_all();
    }

    /// Pull the next job slot `slot` should run: first a job whose
    /// `(request, benchmark)` this slot already claimed, then an
    /// unclaimed one (claiming it), then — with nothing better to do —
    /// steal a claimed pair wholesale.  Jobs pinned to another slot are
    /// never taken.  Blocks until work arrives; `None` is the drain
    /// signal (the scheduler is draining and every job has been
    /// delivered), upon which the slot releases its worker and exits.
    fn next_for(&self, slot: usize) -> Option<Job> {
        let mut board = self.lock_board();
        loop {
            while let Some(idx) = Self::pick(&board, slot) {
                let job = board.queue.remove(idx).expect("picked index in range");
                if board.cancelled.contains(&job.req_id) {
                    continue;
                }
                let prior = board
                    .affinity
                    .insert((job.req_id, job.shard.benchmark.clone()), slot);
                board.in_flight += 1;
                // A pair previously claimed by another slot moves here
                // wholesale: that is a steal, worth counting and tracing.
                if let Some(victim) = prior.filter(|&p| p != slot && job.pinned.is_none()) {
                    self.telemetry(slot).steals.inc();
                    sweep_tracer().event(
                        "serve_steal",
                        &[
                            ("req", job.req_id.into()),
                            ("benchmark", job.shard.benchmark.as_str().into()),
                            ("from_slot", victim.into()),
                            ("to_slot", slot.into()),
                        ],
                    );
                }
                return Some(job);
            }
            if self.shutting_down() && board.queue.is_empty() && board.in_flight == 0 {
                return None;
            }
            board = match self
                .work_ready
                .wait_timeout(board, Duration::from_millis(200))
            {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    fn pick(board: &Board, slot: usize) -> Option<usize> {
        let claim = |job: &Job| {
            board
                .affinity
                .get(&(job.req_id, job.shard.benchmark.clone()))
                .copied()
        };
        let ours = |job: &Job| job.pinned.is_none_or(|p| p == slot);
        let find =
            |rule: &dyn Fn(&Job) -> bool| board.queue.iter().position(|job| ours(job) && rule(job));
        find(&|job| claim(job) == Some(slot))
            .or_else(|| find(&|job| claim(job).is_none()))
            .or_else(|| find(&|_| true))
    }

    /// Deliver a job outcome to its request, if the request still exists.
    fn deliver(&self, req_id: u64, outcome: JobOutcome) {
        let mut board = self.lock_board();
        board.in_flight = board.in_flight.saturating_sub(1);
        if matches!(outcome, JobOutcome::Fragment { .. }) {
            if let Some(progress) = board.progress.get_mut(&req_id) {
                progress.jobs_done += 1;
            }
        }
        if let Some(tx) = board.requests.get(&req_id) {
            // A dead receiver means the client thread is gone; its
            // deregistration will cancel the request.
            let _ = tx.send(outcome);
        }
        drop(board);
        // The drain condition (`in_flight == 0`) may have just become
        // true; parked fleet threads need to wake to see it.
        if self.shutting_down() {
            self.work_ready.notify_all();
        }
    }

    /// One shard attempt failed: burn an attempt (unless the failure
    /// never reached the worker), then exhaust the request or put the
    /// job back on the queue for an eligible slot to take over.
    fn finish_failure(&self, slot: usize, mut job: Job, burned: bool, error: AttemptError) {
        if burned {
            job.attempts += 1;
        }
        if job.attempts >= self.options.max_attempts {
            self.deliver(
                job.req_id,
                JobOutcome::End(Halt::Exhausted(Box::new(job), error)),
            );
        } else {
            sweep_tracer().event(
                "serve_requeue",
                &[
                    ("req", job.req_id.into()),
                    ("benchmark", job.shard.benchmark.as_str().into()),
                    ("slot", slot.into()),
                    ("attempts", job.attempts.into()),
                    ("burned", burned.into()),
                    ("error", error.message().as_str().into()),
                ],
            );
            let mut board = self.lock_board();
            board.in_flight = board.in_flight.saturating_sub(1);
            // Shed the claim so any worker may take over.
            board
                .affinity
                .remove(&(job.req_id, job.shard.benchmark.clone()));
            board.queue.push_back(job);
            drop(board);
            self.work_ready.notify_all();
        }
    }

    /// Queue one request's planned shards — pinned round-robin across
    /// `pin_slots` slots when set — and register `tx` for its outcomes.
    fn enqueue(
        board: &mut Board,
        req_id: u64,
        request: &SweepRequest,
        shards: Vec<Shard>,
        pin_slots: Option<usize>,
        tx: mpsc::Sender<JobOutcome>,
    ) {
        board.requests.insert(req_id, tx);
        board.progress.insert(
            req_id,
            Progress {
                benchmarks: request.benchmarks.len() as u64,
                jobs_total: shards.len() as u64,
                jobs_done: 0,
            },
        );
        for shard in shards {
            board.queue.push_back(Job {
                req_id,
                scale: request.scale,
                parallelism: request.parallelism,
                pinned: pin_slots.map(|n| shard.id % n),
                shard,
                attempts: 0,
            });
        }
    }

    /// Gate one incoming request carrying `incoming_jobs` planned shards
    /// against the admission bounds, under the caller's board lock.
    fn admission(&self, board: &Board, incoming_jobs: usize) -> Admission {
        if self.shutting_down() {
            return Admission::ShuttingDown;
        }
        let pending = board.requests.len();
        let retry_after_ms = (100 + 50 * pending as u64).min(1_000);
        if let Some(max_pending) = self.options.max_pending {
            if pending >= max_pending {
                return Admission::Busy {
                    retry_after_ms,
                    message: format!("{pending} requests already pending (limit {max_pending})"),
                };
            }
        }
        if let Some(max_queued) = self.options.max_queued_jobs {
            let load = board.queue.len() + board.in_flight;
            // Livelock guard: an idle daemon admits any request, even
            // one alone bigger than the bound — otherwise it could never
            // run at all.
            if load > 0 && load + incoming_jobs > max_queued {
                return Admission::Busy {
                    retry_after_ms,
                    message: format!(
                        "{load} jobs already queued or running, {incoming_jobs} more would \
                         exceed the limit of {max_queued}"
                    ),
                };
            }
        }
        Admission::Proceed
    }

    /// Drop a request's channel, progress and claims.  This alone ends a
    /// request that completed: every one of its jobs was delivered, so
    /// none can still be queued or come back through
    /// [`Scheduler::finish_failure`].
    fn forget(board: &mut Board, req_id: u64) {
        board.requests.remove(&req_id);
        board.progress.remove(&req_id);
        board.affinity.retain(|(id, _), _| *id != req_id);
    }

    /// End a request early: forget it, drop its queued jobs, and mark it
    /// cancelled, so a job of it still in flight that is re-queued gets
    /// dropped by [`Scheduler::next_for`] instead of run.
    fn cancel(&self, req_id: u64) {
        let mut board = self.lock_board();
        Self::forget(&mut board, req_id);
        board.cancelled.insert(req_id);
        board.queue.retain(|job| job.req_id != req_id);
    }

    /// Cancel a request whose client hung up, counting and logging the
    /// cancellation.
    fn cancel_gone_client(&self, req_id: u64, when: &str) {
        self.requests_cancelled.inc();
        eprintln!("sweep serve: request {req_id} cancelled: client hung up {when}");
        sweep_tracer().event(
            "serve_request_cancel",
            &[("req", req_id.into()), ("when", when.into())],
        );
        self.cancel(req_id);
    }

    /// Snapshot the daemon's live statistics for a `stats` reply.  One
    /// board lock for the queue/progress view; every per-worker figure is
    /// atomic, read without blocking the fleet.
    fn snapshot_stats(&self) -> wire::ServiceStats {
        let telemetry = self.slots().clone();
        let board = self.lock_board();
        let queued_jobs = board.queue.len() as u64;
        let pending_requests = board.requests.len() as u64;
        let mut claimed = vec![0u64; telemetry.len()];
        let mut queued_of: HashMap<u64, u64> = HashMap::new();
        for job in &board.queue {
            *queued_of.entry(job.req_id).or_default() += 1;
            if let Some(&slot) = board
                .affinity
                .get(&(job.req_id, job.shard.benchmark.clone()))
            {
                if let Some(n) = claimed.get_mut(slot) {
                    *n += 1;
                }
            }
        }
        let mut requests: Vec<wire::RequestProgress> = board
            .progress
            .iter()
            .map(|(&req_id, p)| wire::RequestProgress {
                req_id,
                benchmarks: p.benchmarks,
                jobs_total: p.jobs_total,
                jobs_done: p.jobs_done,
                jobs_queued: queued_of.get(&req_id).copied().unwrap_or(0),
            })
            .collect();
        drop(board);
        requests.sort_by_key(|r| r.req_id);
        let workers = telemetry
            .iter()
            .enumerate()
            .map(|(slot, t)| wire::WorkerStats {
                slot,
                addr: t.addr.clone(),
                live: t.live.get() != 0,
                registered: t.registered,
                busy: t.busy.get() != 0,
                queued: claimed[slot],
                completed: t.completed.get(),
                failed: t.failed.get(),
                steals: t.steals.get(),
                heartbeat_gap_us: t.hb_gaps.snapshot().summary(),
                shard_latency_us: t.latency.snapshot().summary(),
            })
            .collect();
        wire::ServiceStats {
            queued_jobs,
            clients_total: self.clients_total.get(),
            requests_total: self.requests_total.get(),
            requests_failed: self.requests_failed.get(),
            requests_cancelled: self.requests_cancelled.get(),
            pending_requests,
            rejected_busy: self.rejected_busy.get(),
            workers,
            requests,
        }
    }

    /// Acquire a fresh worker connection from `source`.
    fn connect(&self, source: &SlotSource) -> Result<WorkerConn, String> {
        let transport: Box<dyn Transport> = match source {
            SlotSource::Spawn(launch, env) => Box::new(PipeTransport::new(
                launch
                    .command(env)?
                    .spawn()
                    .map_err(|e| format!("spawn failed: {e}"))?,
            )),
            SlotSource::Dial(addr) => Box::new(
                TcpTransport::connect(addr, Some(Duration::from_secs(10)))
                    .map_err(|e| e.to_string())?,
            ),
            SlotSource::Registered => return Err("registered worker is gone".to_string()),
        };
        WorkerConn::establish(
            transport,
            self.options.silence_timeout,
            self.options.token.as_deref(),
        )
    }

    /// One fleet slot: pull jobs, run each on the slot's connection
    /// (acquiring one from `source` whenever it has none), and deliver or
    /// re-queue the outcome until the scheduler drains or the slot
    /// retires.  The module docs state what each failure costs.
    fn run_slot(&self, slot: usize, source: SlotSource, mut conn: Option<WorkerConn>) {
        let telemetry = self.telemetry(slot);
        let mut backoff = Backoff::standard(0xD1A1_0007 ^ slot as u64);
        while let Some(job) = self.next_for(slot) {
            let spec = ShardSpec {
                id: job.shard.id,
                chunk: job.shard.chunk,
                scale: job.scale,
                parallelism: job.parallelism,
                benchmark: job.shard.benchmark.clone(),
                backends: job.shard.backends.clone(),
            };
            // A panic anywhere in the attempt must not kill this thread
            // with the job checked out — that would shrink the fleet and
            // wedge the job's request.  It becomes a failed attempt.
            telemetry.busy.set(1);
            let attempt_started = Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let live = match &mut conn {
                    Some(live) => live,
                    None => {
                        let mut fresh = self.connect(&source).map_err(AttemptError::Spawn)?;
                        fresh.observe_heartbeats(telemetry.hb_gaps.clone());
                        conn.insert(fresh)
                    }
                };
                live.run_shard(
                    &spec,
                    self.options.shard_timeout,
                    self.options.silence_timeout,
                )
            }))
            .unwrap_or_else(|payload| {
                Err(AttemptError::Failed(format!(
                    "fleet thread panicked while running the shard: {}",
                    panic_message(payload.as_ref())
                )))
            });
            telemetry.busy.set(0);
            let error = match attempt {
                Ok((chunk, row)) => {
                    backoff.reset();
                    telemetry.completed.inc();
                    telemetry
                        .latency
                        .record(attempt_started.elapsed().as_micros() as u64);
                    let benchmark = job.shard.benchmark.clone();
                    let fragment = JobOutcome::Fragment {
                        benchmark,
                        chunk,
                        row,
                    };
                    self.deliver(job.req_id, fragment);
                    continue;
                }
                Err(error) => error,
            };
            telemetry.failed.inc();
            if let Some(dead) = conn.take() {
                dead.kill();
            }
            let refused = matches!(
                (&error, &source),
                (AttemptError::Spawn(_), SlotSource::Dial(_))
            );
            let retire = match source {
                SlotSource::Spawn(..) => false,
                SlotSource::Dial(_) => refused && self.shutting_down(),
                SlotSource::Registered => true,
            };
            let message = error.message();
            self.finish_failure(slot, job, !refused, error);
            if retire {
                self.retire(slot, &telemetry, &message);
                return;
            }
            std::thread::sleep(backoff.next_delay());
        }
        // Drained: release the worker politely.
        telemetry.live.set(0);
        if let Some(live) = conn {
            live.shutdown();
        }
    }

    /// One client connection: the accepting half of the opening
    /// ([`accept_opening`]), then the request block (or a `stats` /
    /// `shutdown` control frame in its place), all within the opening
    /// deadline; then enqueue its shards, merge and stream rows as
    /// benchmarks complete.
    fn client_loop(&self, stream: TcpStream, req_id: u64) {
        let Ok((mut lines, write_half)) = accept_socket(stream) else {
            return;
        };
        let mut send = |lines: &[String]| -> bool {
            let mut out = &write_half;
            lines.iter().all(|line| writeln!(out, "{line}").is_ok()) && out.flush().is_ok()
        };
        let lead = [wire::HANDSHAKE.to_string()];
        let token = self.options.token.as_deref();
        let first = match accept_opening(&mut lines, &mut send, &lead, token, None) {
            Ok(Some(first)) => first,
            // The rejection and its trace name the failure, never the token.
            Err(OpeningError::Rejected(reason)) => {
                eprintln!(
                    "sweep serve: client of request {req_id} failed authentication: {reason}"
                );
                sweep_tracer().event(
                    "serve_auth_reject",
                    &[("req", req_id.into()), ("reason", reason.into())],
                );
                return;
            }
            // Wrong version, a vanished or silent client: nothing to salvage.
            Ok(None) | Err(_) => return,
        };
        // A bare `stats` line in place of the request block queries the
        // daemon's live statistics; a `shutdown` line asks the daemon to
        // drain and exit.  Any other first line is handed back to the
        // request decoder.
        if first == wire::STATS_REQUEST {
            send(&wire::encode_stats(&self.snapshot_stats()));
            return;
        }
        if first == wire::SHUTDOWN_REQUEST {
            send(&[wire::SHUTDOWN_ACK.to_string()]);
            self.initiate_shutdown();
            return;
        }
        let mut lines = wire::PrependedLine::new(Some(first), lines);
        let request = match wire::decode_request(&mut lines) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                self.requests_failed.inc();
                send(&wire::encode_service_event(&ServiceEvent::Failed {
                    message: e.to_string(),
                }));
                return;
            }
        };
        if let Err(message) = validate(&request) {
            self.requests_failed.inc();
            send(&wire::encode_service_event(&ServiceEvent::Failed {
                message,
            }));
            return;
        }

        let shards = plan_shards(
            &request.benchmarks,
            &request.backends,
            self.live_workers().max(1),
        );
        let total_jobs = shards.len();
        let (tx, rx) = mpsc::channel();
        {
            // Admission and enqueue under one board lock: the bound
            // cannot be raced past by two clients arriving together.
            let mut board = self.lock_board();
            match self.admission(&board, total_jobs) {
                Admission::Proceed => {}
                Admission::ShuttingDown => {
                    drop(board);
                    self.requests_failed.inc();
                    send(&wire::encode_service_event(&ServiceEvent::Failed {
                        message: "sweep service is shutting down".to_string(),
                    }));
                    return;
                }
                Admission::Busy {
                    retry_after_ms,
                    message,
                } => {
                    drop(board);
                    self.rejected_busy.inc();
                    eprintln!("sweep serve: request {req_id} turned away busy: {message}");
                    sweep_tracer().event(
                        "serve_busy_reject",
                        &[
                            ("req", req_id.into()),
                            ("retry_after_ms", retry_after_ms.into()),
                            ("message", message.as_str().into()),
                        ],
                    );
                    send(&[wire::encode_busy(retry_after_ms, &message)]);
                    return;
                }
            }
            Self::enqueue(&mut board, req_id, &request, shards, None, tx);
        }
        self.requests_total.inc();
        eprintln!(
            "sweep serve: request {req_id} accepted ({} benchmarks × {} backends, {total_jobs} jobs)",
            request.benchmarks.len(),
            request.backends.len()
        );
        sweep_tracer().event(
            "serve_request_accept",
            &[
                ("req", req_id.into()),
                ("benchmarks", request.benchmarks.len().into()),
                ("backends", request.backends.len().into()),
                ("jobs", total_jobs.into()),
            ],
        );
        self.work_ready.notify_all();
        if !send(&[wire::encode_accepted(request.benchmarks.len())]) {
            self.cancel_gone_client(req_id, "before the accept line was written");
            return;
        }

        let streamed = merge_rows(&request, total_jobs, &rx, |index, row| {
            send(&wire::encode_service_event(&ServiceEvent::Row {
                index,
                row,
            }))
        });
        let message = match streamed {
            Ok(()) => {
                send(&wire::encode_service_event(&ServiceEvent::Done {
                    rows: request.benchmarks.len(),
                }));
                Self::forget(&mut self.lock_board(), req_id);
                return;
            }
            Err(Halt::Gone) => {
                // Client hung up mid-stream: stop feeding it.
                self.cancel_gone_client(req_id, "mid-stream");
                return;
            }
            Err(Halt::Exhausted(job, error)) => format!(
                "shard of benchmark `{}` failed after {} attempts: {}",
                job.shard.benchmark,
                self.options.max_attempts,
                error.message()
            ),
            Err(Halt::Failed(message)) => message,
            Err(Halt::Merge(e)) => e.to_string(),
        };
        self.requests_failed.inc();
        eprintln!("sweep serve: request {req_id} failed: {message}");
        send(&wire::encode_service_event(&ServiceEvent::Failed {
            message,
        }));
        self.cancel(req_id);
    }
}

/// Receive one request's `jobs` outcomes, merging each benchmark as soon
/// as its last chunk arrives (through the same [`merge_experiment`] a
/// whole sweep would use) and handing the row, with its request-order
/// index, to `on_row`; `on_row` returning `false` ends the stream.
fn merge_rows(
    request: &SweepRequest,
    jobs: usize,
    rx: &mpsc::Receiver<JobOutcome>,
    mut on_row: impl FnMut(usize, SpecRow) -> bool,
) -> Result<(), Halt> {
    // `plan_shards` gives every benchmark the same number of chunks.
    let chunks_per_bench = (jobs / request.benchmarks.len().max(1)).max(1);
    let mut fragments: HashMap<String, Vec<(String, usize, SpecRow)>> = HashMap::new();
    for _ in 0..jobs {
        let (benchmark, chunk, row) = match rx.recv() {
            Ok(JobOutcome::Fragment {
                benchmark,
                chunk,
                row,
            }) => (benchmark, chunk, row),
            Ok(JobOutcome::End(halt)) => return Err(halt),
            // Every sender is gone with fragments still owed.
            Err(_) => return Err(Halt::Failed("sweep service shut down mid-request".into())),
        };
        let parts = fragments.entry(benchmark.clone()).or_default();
        parts.push((benchmark.clone(), chunk, row));
        if parts.len() < chunks_per_bench {
            continue;
        }
        let parts = fragments.remove(&benchmark).expect("entry just filled");
        let one = std::slice::from_ref(&benchmark);
        let mut merged =
            merge_experiment(request.scale, one, &request.backends, parts).map_err(Halt::Merge)?;
        let row = merged
            .rows
            .pop()
            .expect("one benchmark merges into one row");
        let index = request.benchmarks.iter().position(|b| *b == benchmark);
        if !on_row(index.expect("fragments belong to the request"), row) {
            return Err(Halt::Gone);
        }
    }
    Ok(())
}

/// Reject a request the scheduler could never complete, before accepting
/// it: unknown benchmarks, an empty benchmark list, no backends.
fn validate(request: &wire::SweepRequest) -> Result<(), String> {
    if request.benchmarks.is_empty() {
        return Err("request names no benchmarks".to_string());
    }
    if request.backends.is_empty() {
        return Err("request names no backends".to_string());
    }
    for name in &request.benchmarks {
        if SpecBenchmark::by_name(name).is_none() {
            return Err(format!(
                "unknown SPEC-like benchmark `{name}` (known: {})",
                SpecBenchmark::names().join(", ")
            ));
        }
    }
    let mut seen = HashSet::new();
    for name in &request.benchmarks {
        if !seen.insert(name.as_str()) {
            return Err(format!("benchmark `{name}` requested twice"));
        }
    }
    Ok(())
}

/// One accepted registration connection: authenticate the dialling
/// worker (every rejection is structured, sent before any capability
/// exchange), give it a fresh fleet slot, and serve jobs on it until it
/// departs.  The whole opening, through the worker's `hello`, is due
/// within [`OPENING_TIMEOUT`] of the accept.
fn register_worker(scheduler: &Scheduler, stream: TcpStream) {
    let opening_deadline = Instant::now() + OPENING_TIMEOUT;
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let transport = match TcpTransport::from_stream(stream, peer.clone()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sweep serve: registration from {peer} failed: {e}");
            return;
        }
    };
    match WorkerConn::establish_by(
        Box::new(transport),
        Some(opening_deadline),
        scheduler.options.silence_timeout,
        scheduler.options.token.as_deref(),
    ) {
        Ok(mut conn) => {
            let (slot, telemetry) = scheduler.add_slot(&peer, true);
            conn.observe_heartbeats(telemetry.hb_gaps.clone());
            eprintln!("sweep serve: worker {peer} registered as slot {slot}");
            sweep_tracer().event(
                "serve_worker_register",
                &[("slot", slot.into()), ("peer", peer.as_str().into())],
            );
            scheduler.work_ready.notify_all();
            scheduler.run_slot(slot, SlotSource::Registered, Some(conn));
        }
        Err(e) => {
            // `establish` already answered the worker with a structured
            // `authfail` when credentials were the problem; the error
            // string never carries the token.
            eprintln!("sweep serve: registration from {peer} rejected: {e}");
            sweep_tracer().event(
                "serve_worker_reject",
                &[("peer", peer.as_str().into()), ("error", e.as_str().into())],
            );
        }
    }
}

/// Run the sweep service: bind `options.listen` (and, when configured,
/// `options.register_listen`), print `serving <addr>` — then
/// `registering <addr>` — to stdout, spawn the worker fleet threads, and
/// accept client connections until a `shutdown` control frame drains the
/// daemon (then return `Ok`, i.e. exit 0).
///
/// # Errors
///
/// [`crate::SweepError::Config`] when the options are unusable (no
/// dial-out fleet and no registration listener) or an address cannot be
/// bound; once serving, per-request failures go to their clients as
/// `sfail` events and never tear the daemon down.
pub fn serve_forever(options: ServeOptions) -> Result<(), crate::SweepError> {
    if options.workers.is_empty() && options.register_listen.is_none() {
        return Err(crate::SweepError::Config {
            message: "sweep serve needs at least one worker address or a --register-listen"
                .to_string(),
        });
    }
    let listener = TcpListener::bind(&options.listen).map_err(|e| crate::SweepError::Config {
        message: format!("cannot listen on {}: {e}", options.listen),
    })?;
    match listener.local_addr() {
        Ok(local) => println!("serving {local}"),
        Err(_) => println!("serving {}", options.listen),
    }
    let registrations = match &options.register_listen {
        Some(addr) => {
            let reg = TcpListener::bind(addr).map_err(|e| crate::SweepError::Config {
                message: format!("cannot accept registrations on {addr}: {e}"),
            })?;
            match reg.local_addr() {
                Ok(local) => println!("registering {local}"),
                Err(_) => println!("registering {addr}"),
            }
            Some(reg)
        }
        None => None,
    };
    let _ = std::io::stdout().flush();

    let scheduler = Scheduler::new(options);
    {
        let mut wake = scheduler
            .wake_addrs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Ok(local) = listener.local_addr() {
            wake.push(local.to_string());
        }
        if let Some(local) = registrations.as_ref().and_then(|r| r.local_addr().ok()) {
            wake.push(local.to_string());
        }
    }
    serve_loop(&scheduler, listener, registrations);
    eprintln!("sweep serve: drained, exiting");
    Ok(())
}

fn serve_loop(scheduler: &Scheduler, listener: TcpListener, registrations: Option<TcpListener>) {
    std::thread::scope(|scope| {
        for (slot, addr) in scheduler.options.workers.iter().enumerate() {
            scope.spawn(move || scheduler.run_slot(slot, SlotSource::Dial(addr.clone()), None));
        }
        if let Some(reg) = registrations {
            scope.spawn(move || {
                for stream in reg.incoming() {
                    if scheduler.shutting_down() {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            scope.spawn(move || {
                                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                                    register_worker(scheduler, stream)
                                })) {
                                    eprintln!(
                                        "sweep serve: registration thread panicked: {}",
                                        panic_message(payload.as_ref())
                                    );
                                }
                            });
                        }
                        Err(e) => eprintln!("sweep serve: registration accept failed: {e}"),
                    }
                }
            });
        }
        let mut next_req_id = 0u64;
        for stream in listener.incoming() {
            if scheduler.shutting_down() {
                break;
            }
            match stream {
                Ok(stream) => {
                    let req_id = next_req_id;
                    next_req_id += 1;
                    let peer = stream
                        .peer_addr()
                        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
                    scheduler.clients_total.inc();
                    eprintln!("sweep serve: client {peer} connected (request id {req_id})");
                    sweep_tracer().event(
                        "serve_client_connect",
                        &[("req", req_id.into()), ("peer", peer.as_str().into())],
                    );
                    scope.spawn(move || {
                        // A panic while serving one client must fail only
                        // that request: cancel its shards and, when the
                        // socket is still writable, tell the client why
                        // with a structured `sfail` instead of a hangup.
                        let mut write_half = stream.try_clone().ok();
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            scheduler.client_loop(stream, req_id)
                        }));
                        if let Err(payload) = outcome {
                            scheduler.cancel(req_id);
                            if let Some(w) = write_half.as_mut() {
                                let event = ServiceEvent::Failed {
                                    message: format!(
                                        "internal error while serving this request: {}",
                                        panic_message(payload.as_ref())
                                    ),
                                };
                                for line in wire::encode_service_event(&event) {
                                    let _ = writeln!(w, "{line}");
                                }
                                let _ = w.flush();
                            }
                        }
                        eprintln!("sweep serve: client {peer} disconnected (request id {req_id})");
                        sweep_tracer().event(
                            "serve_client_disconnect",
                            &[("req", req_id.into()), ("peer", peer.as_str().into())],
                        );
                    });
                }
                Err(e) => eprintln!("sweep serve: accept failed: {e}"),
            }
        }
    });
}

/// A one-shot sharded sweep, the body of
/// [`crate::sharded_spec_experiment`]: a scheduler with one slot per
/// spawned worker process (or per TCP address) that serves exactly one
/// request, draining from the start.
pub(crate) fn sweep_once(
    config: &SweepConfig,
    benchmarks: Vec<String>,
    sanitizers: &[SanitizerKind],
) -> Result<SpecExperiment, SweepError> {
    let slots = match &config.worker {
        WorkerLaunch::Tcp(addrs) => addrs.len(),
        _ => config.workers,
    };
    let shards = plan_shards(&benchmarks, sanitizers, slots);
    let workers = slots.clamp(1, shards.len().max(1));
    let scheduler = Scheduler::new(ServeOptions {
        token: config.token.clone(),
        max_attempts: config.max_attempts,
        shard_timeout: config.shard_timeout,
        silence_timeout: config.silence_timeout,
        ..ServeOptions::new(String::new(), Vec::new())
    });
    // Every slot joins the fleet before any starts, so an early retire
    // never mistakes a fleet still being built for a dead one.
    let sources: Vec<SlotSource> = (0..workers)
        .map(|slot| {
            let (source, addr) = match &config.worker {
                WorkerLaunch::Tcp(addrs) => (SlotSource::Dial(addrs[slot].clone()), &*addrs[slot]),
                launch => (
                    SlotSource::Spawn(launch.clone(), config.worker_env.clone()),
                    "pipe",
                ),
            };
            scheduler.add_slot(addr, false);
            source
        })
        .collect();
    scheduler.shutting_down.store(true, Ordering::SeqCst);
    let request = SweepRequest {
        scale: config.scale,
        parallelism: config.parallelism,
        benchmarks,
        backends: sanitizers.to_vec(),
    };
    let jobs = shards.len();
    let pins = (config.strategy == ShardStrategy::Static).then_some(workers);
    let (tx, rx) = mpsc::channel();
    Scheduler::enqueue(&mut scheduler.lock_board(), 0, &request, shards, pins, tx);
    let mut rows = vec![None; request.benchmarks.len()];
    let streamed = std::thread::scope(|scope| {
        for (slot, source) in sources.into_iter().enumerate() {
            let scheduler = &scheduler;
            scope.spawn(move || scheduler.run_slot(slot, source, None));
        }
        let streamed = merge_rows(&request, jobs, &rx, |index, row| {
            rows[index] = Some(row);
            true
        });
        // Drop whatever is still queued, so every slot drains and exits.
        scheduler.cancel(0);
        streamed
    });

    // Summarise each slot's heartbeat arrival gaps into the sweep tracer
    // (`SWEEP_TRACE`); one event per slot even when no heartbeat arrived,
    // so a traced run always documents its fleet.
    let tracer = sweep_tracer();
    if tracer.enabled() {
        for (slot, telemetry) in scheduler.slots().iter().enumerate() {
            let summary = telemetry.hb_gaps.snapshot().summary();
            tracer.event(
                "sweep_worker_hb",
                &[
                    ("slot", slot.into()),
                    ("gap_count", summary.count.into()),
                    ("gap_min_us", summary.min.into()),
                    ("gap_p50_us", summary.p50.into()),
                    ("gap_p99_us", summary.p99.into()),
                    ("gap_max_us", summary.max.into()),
                ],
            );
        }
    }

    streamed.map_err(sweep_error)?;
    let rows = rows
        .into_iter()
        .zip(&request.benchmarks)
        .map(|(row, name)| {
            row.ok_or_else(|| MergeError::Incomplete {
                benchmark: name.clone(),
                detail: "no fragments".to_string(),
            })
        });
    Ok(SpecExperiment {
        scale: config.scale,
        rows: rows.collect::<Result<_, _>>()?,
        sanitizers: request.backends,
    })
}

/// Map how a one-shot sweep's request ended onto [`SweepError`]: a last
/// attempt that blew the shard budget is [`SweepError::ShardTimedOut`],
/// any other exhaustion [`SweepError::ShardExhausted`], and a fleet with
/// no live slot left [`SweepError::Spawn`].
fn sweep_error(halt: Halt) -> SweepError {
    match halt {
        Halt::Exhausted(job, AttemptError::TimedOut(timeout)) => SweepError::ShardTimedOut {
            shard_id: job.shard.id,
            benchmark: job.shard.benchmark,
            attempts: job.attempts,
            timeout,
        },
        Halt::Exhausted(job, error) => SweepError::ShardExhausted {
            shard_id: job.shard.id,
            benchmark: job.shard.benchmark,
            attempts: job.attempts,
            last_error: error.message(),
        },
        Halt::Failed(message) => SweepError::Spawn { message },
        Halt::Merge(e) => SweepError::Merge(e),
        Halt::Gone => unreachable!("the one-shot row sink never hangs up"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> Scheduler {
        let mut options = ServeOptions::new(
            "127.0.0.1:0".to_string(),
            vec!["unused-a".to_string(), "unused-b".to_string()],
        );
        options.token = None;
        Scheduler::new(options)
    }

    fn job(req_id: u64, benchmark: &str) -> Job {
        Job {
            req_id,
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            shard: Shard {
                id: 0,
                chunk: 0,
                benchmark: benchmark.to_string(),
                backends: Vec::new(),
            },
            attempts: 0,
            pinned: None,
        }
    }

    #[test]
    fn stats_snapshot_reflects_board_and_steals() {
        let s = scheduler();
        {
            let mut board = s.lock_board();
            board.queue.push_back(job(1, "mcf"));
            board.queue.push_back(job(1, "gcc"));
            // Slot 1 claimed `gcc`; slot 0 will steal it after draining
            // the unclaimed job.
            board.affinity.insert((1, "gcc".to_string()), 1);
            board.progress.insert(
                1,
                Progress {
                    benchmarks: 2,
                    jobs_total: 2,
                    jobs_done: 0,
                },
            );
        }
        let stats = s.snapshot_stats();
        assert_eq!(stats.queued_jobs, 2);
        assert_eq!(stats.workers.len(), 2);
        assert_eq!(stats.workers[1].queued, 1, "slot 1 claimed one queued job");
        assert!(stats.workers[0].live && !stats.workers[0].registered);
        assert_eq!(stats.requests.len(), 1);
        assert_eq!(stats.requests[0].jobs_total, 2);
        assert_eq!(stats.requests[0].jobs_queued, 2);
        assert_eq!(stats.pending_requests, 0, "no result channel registered");
        assert_eq!(stats.rejected_busy, 0);

        let first = s.next_for(0).expect("queued job");
        assert_eq!(first.shard.benchmark, "mcf", "unclaimed job first");
        assert_eq!(s.telemetry(0).steals.get(), 0);
        let second = s.next_for(0).expect("queued job");
        assert_eq!(second.shard.benchmark, "gcc");
        assert_eq!(
            s.telemetry(0).steals.get(),
            1,
            "taking slot 1's claimed pair is a steal"
        );
    }

    #[test]
    fn board_operations_survive_mutex_poisoning() {
        let s = scheduler();
        // Poison the lock the way a real bug would: die while holding it.
        let died = catch_unwind(AssertUnwindSafe(|| {
            let _guard = s.board.lock().unwrap();
            panic!("thread died holding the board");
        }));
        assert!(died.is_err());
        assert!(s.board.is_poisoned());
        // Every scheduler entry point keeps working for other requests
        // instead of propagating the poison.
        s.cancel(7);
        s.deliver(7, JobOutcome::End(Halt::Failed("gone".to_string())));
        let board = s.lock_board();
        assert!(board.cancelled.contains(&7));
        assert!(board.queue.is_empty());
    }

    #[test]
    fn a_completed_request_leaves_nothing_on_the_board() {
        let worker_port = TcpListener::bind("127.0.0.1:0").expect("bind the worker");
        let worker_addr = worker_port.local_addr().expect("worker addr").to_string();
        let clients = TcpListener::bind("127.0.0.1:0").expect("bind the client port");
        let client_addr = clients.local_addr().expect("client addr").to_string();
        let mut options = ServeOptions::new(client_addr.clone(), vec![worker_addr.clone()]);
        options.token = None;
        let s = Scheduler::new(options);
        let request = SweepRequest {
            scale: Scale::Test,
            parallelism: Parallelism::Sequential,
            benchmarks: vec!["mcf".to_string(), "gcc".to_string()],
            backends: vec![SanitizerKind::None],
        };
        let (swept, worker) = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let (stream, _) = worker_port.accept().expect("accept the slot's dial");
                crate::worker::serve_tcp_with(stream, None)
            });
            scope.spawn(|| s.run_slot(0, SlotSource::Dial(worker_addr.clone()), None));
            scope.spawn(|| {
                let (stream, _) = clients.accept().expect("the client connects");
                s.client_loop(stream, 7);
            });
            let options = crate::net::ClientOptions {
                token: None,
                ..Default::default()
            };
            let swept = crate::net::client_sweep_with(&client_addr, &options, &request, |_, _| {});
            // Drain the slot, which sends the worker `done`; the scope
            // then joins it and the client loop.  A slot that never
            // dialled would leave the worker in `accept`: one throwaway
            // connection ends it either way.
            s.initiate_shutdown();
            let _ = TcpStream::connect(&worker_addr);
            (swept, worker.join())
        });
        assert_eq!(swept.expect("the request completes").rows.len(), 2);
        assert_eq!(worker.expect("worker thread"), 0, "the worker ends cleanly");
        let board = s.lock_board();
        assert!(
            !board.cancelled.contains(&7),
            "a completed request is not cancelled"
        );
        assert!(board.requests.is_empty(), "its result channel is gone");
        assert!(board.progress.is_empty(), "its progress is gone");
        assert!(board.affinity.is_empty(), "its claims are gone");
    }

    #[test]
    fn panic_messages_render_standard_payloads() {
        let formatted = catch_unwind(|| panic!("boom {}", 2)).unwrap_err();
        assert_eq!(panic_message(formatted.as_ref()), "boom 2");
        let literal = catch_unwind(|| panic!("just a literal")).unwrap_err();
        assert_eq!(panic_message(literal.as_ref()), "just a literal");
    }

    #[test]
    fn registered_slots_join_and_retire_in_telemetry() {
        let s = scheduler();
        assert_eq!(s.live_workers(), 2, "dial-out slots are live from birth");
        let (slot, telemetry) = s.add_slot("10.0.0.9:1234", true);
        assert_eq!(slot, 2, "registered slots append after the dial-out fleet");
        assert_eq!(s.live_workers(), 3);
        telemetry.live.set(0);
        assert_eq!(s.live_workers(), 2, "a departed slot no longer counts");
        let stats = s.snapshot_stats();
        assert_eq!(stats.workers.len(), 3, "retired slots stay visible");
        assert!(stats.workers[2].registered);
        assert!(!stats.workers[2].live);
    }

    #[test]
    fn admission_turns_requests_away_only_under_load() {
        let mut options = ServeOptions::new("127.0.0.1:0".to_string(), vec!["w".to_string()]);
        options.token = None;
        options.max_pending = Some(1);
        options.max_queued_jobs = Some(2);
        let s = Scheduler::new(options);
        // The idle daemon admits anything — even a request bigger than
        // the whole queue bound (the livelock guard).
        {
            let board = s.lock_board();
            assert!(matches!(s.admission(&board, 100), Admission::Proceed));
        }
        // One job on the queue: the queue bound now bites…
        {
            let mut board = s.lock_board();
            board.queue.push_back(job(1, "mcf"));
            match s.admission(&board, 2) {
                Admission::Busy {
                    retry_after_ms,
                    message,
                } => {
                    assert!(retry_after_ms >= 100);
                    assert!(message.contains("exceed the limit"), "{message}");
                }
                _ => panic!("over-bound request on a loaded daemon must be busy"),
            }
            // …but a request that still fits is admitted.
            assert!(matches!(s.admission(&board, 1), Admission::Proceed));
        }
        // A pending request exhausts `max_pending` regardless of size.
        {
            let mut board = s.lock_board();
            board.queue.clear();
            let (tx, _rx) = mpsc::channel();
            board.requests.insert(9, tx);
            match s.admission(&board, 1) {
                Admission::Busy { message, .. } => {
                    assert!(message.contains("pending"), "{message}");
                }
                _ => panic!("past max_pending every request is busy"),
            }
        }
        // Shutdown trumps everything.
        s.shutting_down.store(true, Ordering::SeqCst);
        let board = s.lock_board();
        assert!(matches!(s.admission(&board, 1), Admission::ShuttingDown));
    }

    #[test]
    fn shutdown_drains_the_queue_then_parks_the_fleet() {
        let s = scheduler();
        {
            let mut board = s.lock_board();
            board.queue.push_back(job(1, "mcf"));
        }
        s.initiate_shutdown();
        s.initiate_shutdown(); // idempotent
        let drained = s.next_for(0);
        assert!(drained.is_some(), "queued work still runs during drain");
        // Delivering the checked-out job is the last in-flight work;
        // after it the fleet gets the drain signal instead of blocking.
        s.deliver(
            1,
            JobOutcome::End(Halt::Failed("done draining".to_string())),
        );
        assert!(s.next_for(0).is_none(), "drained fleet threads exit");
        assert!(s.next_for(1).is_none(), "every slot sees the drain");
    }

    #[test]
    fn pinned_jobs_are_never_picked_or_stolen_by_another_slot() {
        let s = scheduler();
        {
            let mut board = s.lock_board();
            board.queue.push_back(Job {
                pinned: Some(1),
                ..job(1, "mcf")
            });
            // Not even slot 0's own claim on the pair overrides the pin.
            board.affinity.insert((1, "mcf".to_string()), 0);
            assert_eq!(Scheduler::pick(&board, 0), None, "slot 0 takes nothing");
            assert_eq!(Scheduler::pick(&board, 1), Some(0));
        }
        let taken = s.next_for(1).expect("the pinned slot takes its job");
        assert_eq!(taken.pinned, Some(1));
        assert_eq!(
            s.telemetry(1).steals.get(),
            0,
            "running a pinned job is no steal"
        );
    }

    #[test]
    fn retiring_a_slot_unpins_its_jobs_and_the_survivors_take_them() {
        let s = scheduler();
        {
            let mut board = s.lock_board();
            for benchmark in ["mcf", "gcc"] {
                board.queue.push_back(Job {
                    pinned: Some(0),
                    ..job(1, benchmark)
                });
            }
            board.affinity.insert((1, "mcf".to_string()), 0);
            assert_eq!(Scheduler::pick(&board, 1), None);
        }
        s.retire(0, &s.telemetry(0), "connection refused");
        assert_eq!(s.live_workers(), 1);
        {
            let board = s.lock_board();
            assert!(board.queue.iter().all(|j| j.pinned.is_none()), "unpinned");
            assert!(
                board.affinity.is_empty(),
                "the retired slot's claims are gone"
            );
        }
        let first = s.next_for(1).expect("the survivor takes the first job");
        let second = s.next_for(1).expect("and the second");
        assert_eq!(
            (&*first.shard.benchmark, &*second.shard.benchmark),
            ("mcf", "gcc")
        );
        assert_eq!(
            s.telemetry(1).steals.get(),
            0,
            "an orphaned job is no steal"
        );
    }

    #[test]
    fn last_slot_to_retire_fails_pending_requests_with_the_last_error() {
        let s = scheduler();
        let (tx, rx) = mpsc::channel();
        {
            let mut board = s.lock_board();
            board.requests.insert(1, tx);
            board.queue.push_back(job(1, "mcf"));
        }
        s.retire(0, &s.telemetry(0), "first refusal");
        assert!(rx.try_recv().is_err(), "a survivor can still run the job");
        s.retire(1, &s.telemetry(1), "connection refused");
        match rx.try_recv() {
            Ok(JobOutcome::End(Halt::Failed(message))) => {
                assert!(message.contains("became unreachable"), "{message}");
                assert!(message.contains("connection refused"), "{message}");
            }
            _ => panic!("the pending request must fail once no slot is left"),
        }
        assert!(s.lock_board().queue.is_empty());
    }

    #[test]
    fn spawn_failures_burn_attempts() {
        let mut options = ServeOptions::new("127.0.0.1:0".to_string(), Vec::new());
        options.token = None;
        options.max_attempts = 2;
        let s = Scheduler::new(options);
        let (slot, _) = s.add_slot("pipe", false);
        s.shutting_down.store(true, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        s.lock_board().requests.insert(1, tx);
        s.lock_board().queue.push_back(job(1, "mcf"));
        // A path that exists but is not executable fails at spawn.
        let launch =
            WorkerLaunch::Bin(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
        s.run_slot(slot, SlotSource::Spawn(launch, Vec::new()), None);
        match rx.try_recv() {
            Ok(JobOutcome::End(Halt::Exhausted(job, AttemptError::Spawn(_)))) => {
                assert_eq!(job.attempts, 2, "each failed spawn burns an attempt");
            }
            _ => panic!("repeated spawn failures must exhaust the job"),
        }
        assert_eq!(s.telemetry(slot).live.get(), 0, "the drained slot exits");
    }

    #[test]
    fn refused_dials_burn_nothing_redial_while_serving_and_retire_while_draining() {
        let s = scheduler();
        s.lock_board().queue.push_back(Job {
            pinned: Some(0),
            ..job(1, "mcf")
        });
        std::thread::scope(|scope| {
            // Port 1 on localhost refuses connections.
            let dead = SlotSource::Dial("127.0.0.1:1".to_string());
            let running = scope.spawn(|| s.run_slot(0, dead, None));
            let deadline = Instant::now() + Duration::from_secs(10);
            while s.telemetry(0).failed.get() < 2 {
                assert!(Instant::now() < deadline, "the serving slot never redialed");
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_ne!(s.telemetry(0).live.get(), 0, "serving slots keep redialing");
            s.shutting_down.store(true, Ordering::SeqCst);
            running.join().expect("the draining slot retires");
        });
        assert_eq!(s.telemetry(0).live.get(), 0);
        let board = s.lock_board();
        assert_eq!(board.queue.len(), 1, "the job went back on the queue");
        assert_eq!(board.queue[0].attempts, 0, "refused dials burn nothing");
        assert_eq!(
            board.queue[0].pinned, None,
            "and the retired slot unpinned it"
        );
    }

    #[test]
    fn a_final_timeout_maps_to_shard_timed_out() {
        let exhausted = |error| {
            Halt::Exhausted(
                Box::new(Job {
                    attempts: 2,
                    ..job(1, "mcf")
                }),
                error,
            )
        };
        let budget = Duration::from_millis(500);
        match sweep_error(exhausted(AttemptError::TimedOut(budget))) {
            SweepError::ShardTimedOut {
                benchmark,
                attempts,
                timeout,
                ..
            } => assert_eq!((&*benchmark, attempts, timeout), ("mcf", 2, budget)),
            other => panic!("expected ShardTimedOut, got {other}"),
        }
        match sweep_error(exhausted(AttemptError::Failed("worker exited".to_string()))) {
            SweepError::ShardExhausted { last_error, .. } => {
                assert_eq!(last_error, "worker exited")
            }
            other => panic!("expected ShardExhausted, got {other}"),
        }
        let gone = Halt::Failed("every TCP worker became unreachable".to_string());
        assert!(matches!(sweep_error(gone), SweepError::Spawn { .. }));
    }
}
