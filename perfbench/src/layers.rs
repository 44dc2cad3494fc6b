//! Per-layer sums over the in-process executions of one traced unit of
//! work (an EffectiveSan pass on `spec-ref`, an operation on
//! `bug-matrix`), and the per-layer metrics derived from them.

use std::collections::{BTreeMap, HashSet};

use crate::metrics::Values;
use crate::pipeline::Execution;
use crate::stats::median;
use crate::trace::Tracer;

/// Sums over the executions of one unit.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSums {
    pub instrument_ns: u64,
    pub setup_ns: u64,
    pub run_ns: u64,
    /// The same runs with null check hooks.
    pub null_run_ns: u64,
    pub finish_ns: u64,
    pub alloc_free_ns: u64,
    pub static_checks: u64,
    pub instructions: u64,
    pub check_instructions: u64,
    pub calls: u64,
    pub fast_calls: u64,
    pub tier_promotions: u64,
    pub checks_elided: u64,
    pub type_checks: u64,
    pub cast_checks: u64,
    pub bounds_gets: u64,
    pub bounds_narrows: u64,
    pub bounds_checks: u64,
    pub access_checks: u64,
    pub allocs: u64,
    pub frees: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub legacy_type_checks: u64,
    pub backend_type_checks: u64,
    pub failed_checks: u64,
    pub error_events: u64,
    pub distinct_issues: u64,
}

impl LayerSums {
    /// Add one real-hook execution and the run time of its null-hook twin.
    pub fn add(&mut self, ex: &Execution, null_run_ns: u64) {
        let (r, h) = (&ex.report, &ex.hooks);
        self.instrument_ns += ex.phases.instrument_ns;
        self.setup_ns += ex.phases.setup_ns;
        self.run_ns += ex.phases.run_ns;
        self.null_run_ns += null_run_ns;
        self.finish_ns += ex.phases.finish_ns;
        self.alloc_free_ns += h.alloc_free_ns;
        self.static_checks += r.static_checks as u64;
        self.instructions += r.exec.instructions;
        self.check_instructions += r.exec.check_instructions;
        self.calls += r.exec.calls;
        self.fast_calls += r.exec.fast_calls;
        self.tier_promotions += r.exec.tier_promotions;
        self.checks_elided += r.exec.checks_elided;
        self.type_checks += h.type_checks;
        self.cast_checks += h.cast_checks;
        self.bounds_gets += h.bounds_gets;
        self.bounds_narrows += h.bounds_narrows;
        self.bounds_checks += h.bounds_checks;
        self.access_checks += h.access_checks;
        self.allocs += h.allocs;
        self.frees += h.frees;
        self.cache_hits += r.checks.check_cache_hits;
        self.cache_misses += r.checks.check_cache_misses;
        self.legacy_type_checks += r.checks.legacy_type_checks;
        self.backend_type_checks += r.checks.type_checks;
        self.failed_checks += h.failed_checks + r.checks.failed_type_checks;
        self.error_events += r.errors.total_events;
        self.distinct_issues += r.errors.distinct_issues;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fill the `instrument.*`, `vm.*`, `san.*` and `self.*`/`trace.*`
/// metrics from the units' sums: times are medians over units, counts are
/// means.  `control_run_ns` is the VM run time of the uninstrumented
/// control for one unit, when the workload has one.  Hook time (real-hook
/// run minus null-hook run) and allocation time move from the VM's span
/// self time to the sanitizer's.
pub fn fill(
    units: &[LayerSums],
    control_run_ns: Option<f64>,
    tracer: &Tracer,
    ops: &HashSet<u64>,
    values: &mut Values,
) {
    if units.is_empty() {
        return;
    }
    let n = units.len() as f64;
    let med =
        |f: fn(&LayerSums) -> u64| median(&units.iter().map(|u| f(u) as f64).collect::<Vec<_>>());
    let mean = |f: fn(&LayerSums) -> u64| units.iter().map(|u| f(u) as f64).sum::<f64>() / n;
    let total = |f: fn(&LayerSums) -> u64| units.iter().map(f).sum::<u64>();

    let run_ms = med(|u| u.run_ns) / 1e6;
    let dispatch_ms = med(|u| u.null_run_ns) / 1e6;
    let hook_ms = run_ms - dispatch_ms;
    let alloc_free_ms = med(|u| u.alloc_free_ns) / 1e6;
    values.insert("instrument.pass_us", med(|u| u.instrument_ns) / 1e3);
    values.insert("instrument.static_checks", mean(|u| u.static_checks));
    values.insert("vm.setup_us", med(|u| u.setup_ns) / 1e3);
    values.insert("vm.run_ms", run_ms);
    values.insert("vm.dispatch_ms", dispatch_ms);
    if let Some(control) = control_run_ns {
        values.insert("vm.check_dispatch_ms", dispatch_ms - control / 1e6);
    }
    values.insert("vm.instructions", mean(|u| u.instructions));
    values.insert("vm.check_instructions", mean(|u| u.check_instructions));
    values.insert("vm.calls", mean(|u| u.calls));
    values.insert(
        "vm.fast_call_ratio",
        ratio(total(|u| u.fast_calls), total(|u| u.calls)),
    );
    values.insert("vm.tier_promotions", mean(|u| u.tier_promotions));
    values.insert("vm.checks_elided", mean(|u| u.checks_elided));
    let elided = total(|u| u.checks_elided);
    let executed = total(|u| u.bounds_checks + u.access_checks);
    values.insert("vm.elided_ratio", ratio(elided, executed + elided));
    values.insert("san.hook_ms", hook_ms);
    values.insert("san.alloc_free_ms", alloc_free_ms);
    values.insert("san.finish_us", med(|u| u.finish_ns) / 1e3);
    values.insert("san.type_checks", mean(|u| u.type_checks));
    values.insert("san.cast_checks", mean(|u| u.cast_checks));
    values.insert("san.bounds_gets", mean(|u| u.bounds_gets));
    values.insert("san.bounds_narrows", mean(|u| u.bounds_narrows));
    values.insert("san.bounds_checks", mean(|u| u.bounds_checks));
    values.insert("san.access_checks", mean(|u| u.access_checks));
    values.insert("san.allocs", mean(|u| u.allocs));
    values.insert("san.frees", mean(|u| u.frees));
    let hits = total(|u| u.cache_hits);
    values.insert(
        "san.cache_hit_rate",
        ratio(hits, hits + total(|u| u.cache_misses)),
    );
    values.insert(
        "san.legacy_fraction",
        ratio(
            total(|u| u.legacy_type_checks),
            total(|u| u.backend_type_checks),
        ),
    );
    values.insert("san.failed_checks", mean(|u| u.failed_checks));
    values.insert("san.error_events", mean(|u| u.error_events));
    values.insert("san.distinct_issues", mean(|u| u.distinct_issues));

    // Span self times per unit, with hook and allocation time moved from
    // the VM (whose `vm.run` span contains them) to the sanitizer.
    let mut self_ms: BTreeMap<&str, f64> = tracer
        .self_ns_by_layer(|s| ops.contains(&s.op))
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e6 / n))
        .collect();
    let moved =
        (mean(|u| u.run_ns) - mean(|u| u.null_run_ns)) / 1e6 + mean(|u| u.alloc_free_ns) / 1e6;
    *self_ms.entry("vm").or_default() -= moved;
    *self_ms.entry("san").or_default() += moved;
    let op_ms = tracer.root_ns(|s| ops.contains(&s.op)) as f64 / 1e6 / n;
    let mut sum = 0.0;
    for (layer, ms) in self_ms {
        let name = match layer {
            "minic" => "self.minic_ms",
            "instrument" => "self.instrument_ms",
            "vm" => "self.vm_ms",
            "san" => "self.san_ms",
            "core" => "self.core_ms",
            _ => "self.sweep_ms",
        };
        *values.entry(name).or_default() += ms;
        sum += ms;
    }
    values.insert("trace.op_ms", op_ms);
    values.insert("trace.self_sum_pct", 100.0 * sum / op_ms);
}
