//! The opt-in VM site profiler.
//!
//! Enabled by [`VmConfig::profile`](crate::VmConfig::profile); when off
//! (the default) the interpreter pays one predictable `Option` test per
//! would-be sample and nothing else.  When on, the profiler records
//!
//! * per-check-site outcome counts — hit (backend call passed) and miss
//!   (backend call reported a violation); both tiers run every check, so
//!   these sum to the site's dynamic occurrences;
//! * per-function counts — instructions retired and activations
//!   dispatched, in whichever tier the VM runs.
//!
//! Profiling is observational only: it never feeds back into execution,
//! so a profiled run's `RunReport` is bit-identical to an unprofiled
//! one (pinned by `tests/observability.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use obs::{FuncCounts, ProfileReport, SiteCounts};

/// Sample sink owned by a [`Vm`](crate::Vm) when profiling is enabled.
#[derive(Debug, Default)]
pub(crate) struct VmProfiler {
    /// Per-site outcome counts, keyed by the interned site label.
    sites: HashMap<Arc<str>, SiteCounts>,
    /// Per-function counts, parallel to the VM's function table.
    funcs: Vec<(String, FuncCounts)>,
}

impl VmProfiler {
    /// A profiler over the VM's function table (in table order).
    pub(crate) fn new(func_names: Vec<String>) -> Self {
        VmProfiler {
            sites: HashMap::new(),
            funcs: func_names
                .into_iter()
                .map(|name| (name, FuncCounts::default()))
                .collect(),
        }
    }

    /// A check executed its backend call: `passed` per the backend's
    /// verdict (type/cast checks, which report no verdict, pass `true`).
    #[inline]
    pub(crate) fn check(&mut self, loc: &Arc<str>, passed: bool) {
        let s = self.sites.entry(Arc::clone(loc)).or_default();
        if passed {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
    }

    /// `n` instructions retired in function `idx`.
    #[inline]
    pub(crate) fn instrs(&mut self, idx: u32, n: u64) {
        if let Some((_, c)) = self.funcs.get_mut(idx as usize) {
            c.instructions += n;
        }
    }

    /// An activation of function `idx` dispatched.
    #[inline]
    pub(crate) fn call(&mut self, idx: u32) {
        if let Some((_, c)) = self.funcs.get_mut(idx as usize) {
            c.calls += 1;
        }
    }

    /// Snapshot the collected profile as a plain-data report (sites and
    /// functions sorted by name; functions that never ran are dropped).
    pub(crate) fn report(&self) -> ProfileReport {
        let mut sites: Vec<(String, SiteCounts)> = self
            .sites
            .iter()
            .map(|(loc, c)| (loc.to_string(), *c))
            .collect();
        sites.sort_by(|a, b| a.0.cmp(&b.0));
        let mut funcs: Vec<(String, FuncCounts)> = self
            .funcs
            .iter()
            .filter(|(_, c)| *c != FuncCounts::default())
            .cloned()
            .collect();
        funcs.sort_by(|a, b| a.0.cmp(&b.0));
        ProfileReport { sites, funcs }
    }
}
