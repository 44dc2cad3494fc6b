//! The compile → instrument → execute pipeline and its reports.
//!
//! This is the user-facing entry point of the reproduction: give it C-like
//! source text (or an already compiled [`Program`]), pick a
//! [`SanitizerKind`], and get back a [`RunReport`] containing the program
//! result, the dynamic check counts, the issues found, the memory
//! footprint, and both a wall-clock time and a deterministic cost estimate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use effective_runtime::{ErrorStats, ReportMode, ReporterConfig, RuntimeConfig};
use instrument::{instrument_program, SanitizerKind};
use lowfat::AllocatorConfig;
use minic::{CompileError, Program};
use san_api::{Diagnostic, SanStats};
use serde::Serialize;
use vm::{CostModel, ExecStats, Value, Vm, VmConfig, VmError};

/// Configuration of a sanitized run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Which sanitizer to instrument for.
    pub sanitizer: SanitizerKind,
    /// Error reporting mode (`Log` to keep records, `Count` for
    /// performance measurement, as in §6).
    pub report_mode: ReportMode,
    /// Abort after this many errors (`None`: keep going, the default).
    pub abort_after: Option<u64>,
    /// Quarantine length for freed blocks (0 = disabled, the EffectiveSan
    /// default).
    pub quarantine_blocks: usize,
    /// Instruction budget.
    pub max_instructions: u64,
    /// Cost model for the deterministic time estimate.
    pub cost_model: CostModel,
    /// Collect the VM's site/function profile (see [`run_program_profiled`]).
    /// Off by default; observational only.
    pub profile: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sanitizer: SanitizerKind::EffectiveFull,
            report_mode: ReportMode::Log,
            abort_after: None,
            quarantine_blocks: 0,
            max_instructions: 2_000_000_000,
            cost_model: CostModel::default(),
            profile: false,
        }
    }
}

impl RunConfig {
    /// A configuration for the given sanitizer with defaults otherwise.
    /// The substrate allocator quarantine follows the tool's own allocator
    /// ([`SanitizerKind::default_quarantine_blocks`]): AddressSanitizer's
    /// bounded quarantine, Memcheck's larger freelist, none for the rest.
    pub fn for_sanitizer(sanitizer: SanitizerKind) -> Self {
        RunConfig {
            sanitizer,
            quarantine_blocks: sanitizer.default_quarantine_blocks(),
            ..Default::default()
        }
    }
}

/// The outcome of one instrumented execution.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RunReport {
    /// The sanitizer used.
    pub sanitizer: SanitizerKind,
    /// The entry function's integer return value (`None` if the VM
    /// stopped with an error).
    pub result: Option<i64>,
    /// The VM error, rendered, if the run did not complete.
    pub vm_error: Option<String>,
    /// VM event counters.
    pub exec: ExecStats,
    /// Unified dynamic-check counters of the active backend.
    pub checks: SanStats,
    /// Issues found, as reported by the active backend.
    pub errors: ErrorStats,
    /// The distinct issues, rendered as structured diagnostics by the
    /// backend's [`san_api::Sanitizer::finish`] hook (empty in counting
    /// mode).
    pub diagnostics: Vec<Diagnostic>,
    /// Wall-clock execution time of the interpreter.
    pub wall_time: Duration,
    /// Deterministic cost estimate (see [`CostModel`]).
    pub cost: f64,
    /// Peak resident memory of the simulated address space, in bytes.
    pub peak_memory_bytes: u64,
    /// Fraction of `type_check` calls that saw legacy pointers (the paper
    /// reports ~1.1% for SPEC2006).
    pub legacy_check_fraction: f64,
    /// Static number of check instructions in the instrumented program.
    pub static_checks: usize,
}

impl RunReport {
    /// Total dynamic checks performed by the active sanitizer.
    pub fn total_checks(&self) -> u64 {
        self.checks.total_checks()
    }

    /// Overhead of this run relative to a baseline run, in percent, using
    /// the deterministic cost estimate (e.g. `288.0` means 3.88× slower).
    pub fn overhead_pct(&self, baseline: &RunReport) -> f64 {
        if baseline.cost <= 0.0 {
            return 0.0;
        }
        (self.cost / baseline.cost - 1.0) * 100.0
    }

    /// Memory overhead relative to a baseline run, in percent.
    pub fn memory_overhead_pct(&self, baseline: &RunReport) -> f64 {
        if baseline.peak_memory_bytes == 0 {
            return 0.0;
        }
        (self.peak_memory_bytes as f64 / baseline.peak_memory_bytes as f64 - 1.0) * 100.0
    }
}

/// Compile Mini-C/C++ source text into a program.
///
/// Thin wrapper over [`minic::compile`] re-exported here so downstream users
/// only need this crate.
pub fn compile(source: &str) -> Result<Program, CompileError> {
    minic::compile(source)
}

/// Instrument a compiled program for the given sanitizer.
pub fn instrument(program: &Program, sanitizer: SanitizerKind) -> Program {
    instrument_program(program, sanitizer)
}

/// Run a compiled (uninstrumented) program under the given configuration:
/// the program is instrumented, executed in the VM, and a [`RunReport`] is
/// produced.
pub fn run_program(program: &Program, entry: &str, args: &[i64], config: &RunConfig) -> RunReport {
    run_program_profiled(program, entry, args, config).0
}

/// [`run_program`], additionally returning the VM's site/function profile
/// when [`RunConfig::profile`] is set (`None` otherwise).  Profiling is
/// observational: the returned [`RunReport`] is bit-identical either way
/// (`tests/observability.rs` pins this).
pub fn run_program_profiled(
    program: &Program,
    entry: &str,
    args: &[i64],
    config: &RunConfig,
) -> (RunReport, Option<obs::ProfileReport>) {
    let instrumented = instrument_program(program, config.sanitizer);
    let static_checks = instrumented.check_count();
    let vm_config = VmConfig {
        sanitizer: config.sanitizer,
        runtime: RuntimeConfig {
            reporter: ReporterConfig {
                mode: config.report_mode,
                abort_after: config.abort_after,
            },
            allocator: AllocatorConfig {
                quarantine_blocks: config.quarantine_blocks,
            },
        },
        max_instructions: config.max_instructions,
        profile: config.profile,
        ..Default::default()
    };
    let mut vm = Vm::new(Arc::new(instrumented), vm_config);
    let argv: Vec<Value> = args.iter().map(|v| Value::Int(*v)).collect();

    let start = Instant::now();
    let outcome = vm.run(entry, &argv);
    let wall_time = start.elapsed();

    let (result, vm_error) = match outcome {
        Ok(v) => (Some(v.as_int()), None),
        Err(VmError::Halted) => (None, Some(VmError::Halted.to_string())),
        Err(e) => (None, Some(e.to_string())),
    };

    let exec = vm.stats();
    let checks = vm.backend().stats();
    // The backend attributes issues to the active tool itself — no
    // per-kind merging here.
    let errors = vm.backend().error_stats();
    let diagnostics = vm.backend_mut().finish();
    let cost = config.cost_model.cost(&exec, &checks);
    let legacy_check_fraction = if checks.type_checks > 0 {
        checks.legacy_type_checks as f64 / checks.type_checks as f64
    } else {
        0.0
    };

    let report = RunReport {
        sanitizer: config.sanitizer,
        result,
        vm_error,
        exec,
        checks,
        errors,
        diagnostics,
        wall_time,
        cost,
        peak_memory_bytes: vm.peak_memory_bytes(),
        legacy_check_fraction,
        static_checks,
    };
    (report, vm.profile_report())
}

/// Compile and run source text in one step.
pub fn run_source(
    source: &str,
    entry: &str,
    args: &[i64],
    config: &RunConfig,
) -> Result<RunReport, CompileError> {
    let program = compile(source)?;
    Ok(run_program(&program, entry, args, config))
}

/// Run the same program under several sanitizers and return the reports in
/// order (the common shape of the paper's experiments).
pub fn run_matrix(
    program: &Program,
    entry: &str,
    args: &[i64],
    sanitizers: &[SanitizerKind],
    base_config: &RunConfig,
) -> Vec<RunReport> {
    sanitizers
        .iter()
        .map(|&sanitizer| {
            let config = RunConfig {
                sanitizer,
                ..*base_config
            };
            run_program(program, entry, args, &config)
        })
        .collect()
}

/// Geometric mean of overhead percentages (the paper reports overall
/// overheads as means over the benchmark suite).
pub fn geometric_mean_overhead(overheads_pct: &[f64]) -> f64 {
    if overheads_pct.is_empty() {
        return 0.0;
    }
    let product: f64 = overheads_pct
        .iter()
        .map(|o| (o / 100.0 + 1.0).max(1e-9).ln())
        .sum();
    ((product / overheads_pct.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use effective_runtime::ErrorKind;

    const ACCOUNT_SRC: &str = "
        struct account { int number[8]; float balance; };
        int run(int idx) {
            struct account *a = (struct account *)malloc(sizeof(struct account));
            int *n = a->number;
            n[idx] = 7;
            int v = n[idx];
            free(a);
            return v;
        }";

    #[test]
    fn run_source_produces_a_complete_report() {
        let report = run_source(
            ACCOUNT_SRC,
            "run",
            &[3],
            &RunConfig::for_sanitizer(SanitizerKind::EffectiveFull),
        )
        .unwrap();
        assert_eq!(report.result, Some(7));
        assert!(report.vm_error.is_none());
        assert!(report.checks.type_checks >= 1);
        assert!(report.checks.bounds_checks >= 1);
        assert_eq!(report.errors.distinct_issues, 0);
        assert!(report.cost > 0.0);
        assert!(report.peak_memory_bytes > 0);
        assert!(report.static_checks > 0);
    }

    #[test]
    fn seeded_overflow_is_reported_with_the_right_class() {
        let report = run_source(
            ACCOUNT_SRC,
            "run",
            &[8],
            &RunConfig::for_sanitizer(SanitizerKind::EffectiveFull),
        )
        .unwrap();
        assert_eq!(
            report.errors.issues_of(ErrorKind::SubObjectBoundsOverflow),
            1
        );
    }

    #[test]
    fn uninstrumented_runs_report_no_errors_and_no_checks() {
        let report = run_source(
            ACCOUNT_SRC,
            "run",
            &[8],
            &RunConfig::for_sanitizer(SanitizerKind::None),
        )
        .unwrap();
        assert_eq!(report.errors.distinct_issues, 0);
        assert_eq!(report.total_checks(), 0);
        assert_eq!(report.static_checks, 0);
    }

    #[test]
    fn run_matrix_orders_costs_by_coverage() {
        let program = compile(ACCOUNT_SRC).unwrap();
        let reports = run_matrix(
            &program,
            "run",
            &[3],
            &[
                SanitizerKind::None,
                SanitizerKind::EffectiveType,
                SanitizerKind::EffectiveBounds,
                SanitizerKind::EffectiveFull,
            ],
            &RunConfig::default(),
        );
        assert_eq!(reports.len(), 4);
        let base = &reports[0];
        let full = &reports[3];
        assert!(full.cost > base.cost);
        assert!(full.overhead_pct(base) > 0.0);
        // Every variant returns the same program result.
        for r in &reports {
            assert_eq!(r.result, Some(7));
        }
    }

    #[test]
    fn baseline_sanitizer_reports_come_from_the_baseline() {
        let src = "
            int run(void) {
                int *p = (int *)malloc(4 * sizeof(int));
                free(p);
                int v = p[0];
                return v;
            }";
        let report = run_source(
            src,
            "run",
            &[],
            &RunConfig::for_sanitizer(SanitizerKind::AddressSanitizer),
        )
        .unwrap();
        assert!(report.checks.access_checks >= 1);
        assert!(report.errors.issues_of(ErrorKind::UseAfterFree) >= 1);
        let uaf = report
            .diagnostics
            .iter()
            .find(|d| d.kind == ErrorKind::UseAfterFree)
            .expect("UAF diagnostic rendered");
        assert_eq!(uaf.observed, "poisoned (freed) memory");
    }

    #[test]
    fn geometric_mean_is_sane() {
        assert!((geometric_mean_overhead(&[100.0, 100.0]) - 100.0).abs() < 1e-9);
        assert_eq!(geometric_mean_overhead(&[]), 0.0);
        let g = geometric_mean_overhead(&[50.0, 200.0]);
        assert!(g > 50.0 && g < 200.0);
    }

    #[test]
    fn abort_after_stops_the_run() {
        let src = "
            int run(void) {
                int *p = (int *)malloc(4 * sizeof(int));
                float *q = (float *)p;
                long total = 0;
                for (int i = 0; i < 100; i++) {
                    total += (long)q[i % 4];
                }
                return (int)total;
            }";
        let config = RunConfig {
            sanitizer: SanitizerKind::EffectiveFull,
            abort_after: Some(1),
            ..Default::default()
        };
        let report = run_source(src, "run", &[], &config).unwrap();
        assert!(report.vm_error.is_some());
        assert!(report.errors.total_events >= 1);
    }
}
