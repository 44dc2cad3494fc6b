//! Seeded input generation.  Every workload's inputs come from here and
//! from nothing else, so one `--seed` always yields the same inputs and
//! the program under test only ever sees the generated values.

use std::ops::RangeInclusive;

use effective_san::workloads::{catalogue, SeededBug, SpecBenchmark};

/// SplitMix64: small, fast, and fully specified, so inputs repeat across
/// builds and hosts.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each workload
    /// draws an independent sequence from the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The band `spec-ref` draws each program's `n` from: around the
/// reference 600, and narrow, so that a seed varies the inputs without
/// moving a program's run time by more than a few percent.
pub const SPEC_N_BAND: RangeInclusive<i64> = 585..=615;

/// `spec-ref` inputs: every SPEC-like program once, in a seeded order,
/// each with its own `n` drawn from `SPEC_N_BAND`.
pub fn spec_programs(seed: u64) -> Vec<(&'static str, i64)> {
    let mut rng = Rng::new(seed, 1);
    let mut names = SpecBenchmark::names();
    rng.shuffle(&mut names);
    names
        .into_iter()
        .map(|n| (n, rng.range(*SPEC_N_BAND.start(), *SPEC_N_BAND.end())))
        .collect()
}

/// Largest `n` a `bug-matrix` operation passes to `probe_main`.
pub const MAX_BUG_CALLS: i64 = 12;

/// The `bug-matrix` program for one catalogue bug: its declarations plus
/// `int probe_main(int n)`, which triggers the bug `n` times.
pub fn bug_source(bug: &SeededBug) -> String {
    format!(
        "{}\nint probe_main(int n) {{\n    for (int i = 0; i < n; i++) {{\n        {}();\n    }}\n    return n;\n}}\n",
        bug.decls, bug.entry
    )
}

/// The endless `bug-matrix` operation stream: `(catalogue index, n)`.
/// Each round visits every bug once in a fresh seeded order; `n` is drawn
/// per operation from `1..=MAX_BUG_CALLS`.
#[derive(Clone, Debug)]
pub struct BugOps {
    rng: Rng,
    round: Vec<usize>,
}

impl BugOps {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> BugOps {
        BugOps {
            rng: Rng::new(seed, 2),
            round: Vec::new(),
        }
    }
}

impl Iterator for BugOps {
    type Item = (usize, i64);

    fn next(&mut self) -> Option<(usize, i64)> {
        if self.round.is_empty() {
            self.round = (0..catalogue().len()).collect();
            self.rng.shuffle(&mut self.round);
        }
        let bug = self.round.pop()?;
        Some((bug, self.rng.range(1, MAX_BUG_CALLS)))
    }
}

/// Benchmarks per `sweep-daemon` request.
pub const DAEMON_REQUEST_BENCHMARKS: usize = 6;

/// `sweep-daemon` requests: sliding windows over a seeded order of all
/// benchmarks, so one cycle of requests covers every benchmark equally.
/// Request `j` of a run is `windows[j % windows.len()]`.
pub fn daemon_requests(seed: u64) -> Vec<Vec<String>> {
    let mut rng = Rng::new(seed, 3);
    let mut names = SpecBenchmark::names();
    rng.shuffle(&mut names);
    (0..names.len())
        .map(|start| {
            (0..DAEMON_REQUEST_BENCHMARKS)
                .map(|k| names[(start * DAEMON_REQUEST_BENCHMARKS + k) % names.len()].to_string())
                .collect()
        })
        .collect()
}

/// Sweep orders a `sweep-sharded` run cycles through.
pub const SHARDED_ORDERS: usize = 4;

/// The endless `sweep-sharded` stream of `(order index, benchmarks)`:
/// each sweep covers every benchmark, in one of `SHARDED_ORDERS` seeded
/// orders taken in turn.  Shards are handed out in this order, so it
/// decides which worker runs what; keeping the set whole keeps the work
/// per sweep constant, and repeating each order lets a run time it more
/// than once.
#[derive(Clone, Debug)]
pub struct ShardedSweeps {
    orders: Vec<Vec<&'static str>>,
    next: usize,
}

impl ShardedSweeps {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> ShardedSweeps {
        let mut rng = Rng::new(seed, 4);
        let orders = (0..SHARDED_ORDERS)
            .map(|_| {
                let mut names = SpecBenchmark::names();
                rng.shuffle(&mut names);
                names
            })
            .collect();
        ShardedSweeps { orders, next: 0 }
    }
}

impl Iterator for ShardedSweeps {
    type Item = (usize, Vec<&'static str>);

    fn next(&mut self) -> Option<(usize, Vec<&'static str>)> {
        let kind = self.next % SHARDED_ORDERS;
        self.next += 1;
        Some((kind, self.orders[kind].clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a run of each workload would receive, rendered as bytes.
    fn rendered(seed: u64) -> String {
        let mut out = format!("{:?}\n", spec_programs(seed));
        let bugs = catalogue();
        for (bug, n) in BugOps::new(seed).take(3 * bugs.len()) {
            out.push_str(&format!("{n}\n{}", bug_source(&bugs[bug])));
        }
        out.push_str(&format!("{:?}\n", daemon_requests(seed)));
        for sweep in ShardedSweeps::new(seed).take(20) {
            out.push_str(&format!("{sweep:?}\n"));
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_other_seeds_differ() {
        assert_eq!(rendered(7).into_bytes(), rendered(7).into_bytes());
        assert_ne!(rendered(7), rendered(8));
        assert_ne!(rendered(0), rendered(1));
    }

    #[test]
    fn inputs_stay_in_their_bands() {
        let programs = spec_programs(3);
        assert_eq!(programs.len(), SpecBenchmark::names().len());
        assert!(programs.iter().all(|(_, n)| SPEC_N_BAND.contains(n)));
        let bugs = catalogue().len();
        let ops: Vec<_> = BugOps::new(3).take(bugs).collect();
        let mut seen: Vec<usize> = ops.iter().map(|(b, _)| *b).collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..bugs).collect::<Vec<_>>(),
            "a round visits every bug"
        );
        assert!(ops.iter().all(|(_, n)| (1..=MAX_BUG_CALLS).contains(n)));
        let windows = daemon_requests(3);
        let mut counts = std::collections::HashMap::new();
        for name in windows.iter().flatten() {
            *counts.entry(name.clone()).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c == DAEMON_REQUEST_BENCHMARKS));
    }

    #[test]
    fn every_bug_program_compiles() {
        for bug in catalogue() {
            effective_san::compile(&bug_source(&bug)).unwrap_or_else(|e| panic!("{}: {e}", bug.id));
        }
    }
}
