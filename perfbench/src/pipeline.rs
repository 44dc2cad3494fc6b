//! The compile → instrument → execute pipeline, step by step through the
//! public APIs, so each step can be timed and checked.  It builds its
//! `RunReport` exactly as `effective_san::run_program` does; the tests pin
//! the two equal in every field except `wall_time`.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use effective_san::effective_runtime::{ReporterConfig, RuntimeConfig};
use effective_san::lowfat::AllocatorConfig;
use effective_san::minic::{self, Program};
use effective_san::vm::{Value, Vm, VmConfig};
use effective_san::{instrument, san_api, RunConfig, RunReport, SanitizerKind};

use crate::hooks::{CheckHooks, Counting, HookCounts};
use crate::trace::Tracer;

/// Which backend object the VM dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The registry backend itself, as `run_program` builds it.
    Plain,
    /// The registry backend behind the counting wrapper.
    Counted(CheckHooks),
}

/// Which VM tiers may run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The default tiering policy.
    Default,
    /// The slow tier only: the semantic oracle.
    SlowOnly,
}

/// Nanoseconds spent in each pipeline step.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub instrument_ns: u64,
    pub setup_ns: u64,
    pub run_ns: u64,
    pub finish_ns: u64,
}

/// One execution: its report, its printed output and what the steps cost.
#[derive(Debug)]
pub struct Execution {
    pub report: RunReport,
    pub output: Vec<String>,
    pub hooks: HookCounts,
    pub phases: Phases,
}

fn step<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let id = tracer.as_deref_mut().map(|t| t.enter(name));
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
        t.exit(id);
    }
    (out, ns)
}

/// Run `program` under `kind` with `RunConfig::for_sanitizer(kind)`, like
/// `run_program`, recording a `core.run` span with one child per step when
/// `tracer` is given.
pub fn execute(
    program: &Program,
    entry: &str,
    args: &[i64],
    kind: SanitizerKind,
    backend: Backend,
    tier: Tier,
    mut tracer: Option<&mut Tracer>,
) -> Execution {
    let root = tracer.as_deref_mut().map(|t| t.enter("core.run"));
    let config = RunConfig::for_sanitizer(kind);
    let mut phases = Phases::default();
    let (instrumented, ns) = step(&mut tracer, "instrument.pass", || instrument(program, kind));
    phases.instrument_ns = ns;
    let static_checks = instrumented.check_count();
    let mut vm_config = VmConfig {
        sanitizer: kind,
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
        profile: false,
        ..Default::default()
    };
    if tier == Tier::SlowOnly {
        vm_config.promote_after_calls = u32::MAX;
        vm_config.osr_after_backjumps = u32::MAX;
    }
    let sink = Rc::new(Cell::new(HookCounts::default()));
    let (mut vm, ns) = step(&mut tracer, "vm.setup", || {
        let program = Arc::new(instrumented);
        match backend {
            Backend::Plain => Vm::new(program, vm_config),
            Backend::Counted(hooks) => {
                let inner = san_api::build(kind, program.registry.clone(), vm_config.runtime);
                let wrapped = Counting::new(inner, hooks, sink.clone());
                Vm::with_backend(program, Box::new(wrapped), vm_config)
            }
        }
    });
    phases.setup_ns = ns;
    let argv: Vec<Value> = args.iter().map(|v| Value::Int(*v)).collect();
    let start = Instant::now();
    let (outcome, ns) = step(&mut tracer, "vm.run", || vm.run(entry, &argv));
    let wall_time = start.elapsed();
    phases.run_ns = ns;
    let (result, vm_error) = match outcome {
        Ok(v) => (Some(v.as_int()), None),
        Err(e) => (None, Some(e.to_string())),
    };
    let exec = vm.stats();
    let checks = vm.backend().stats();
    let errors = vm.backend().error_stats();
    let (diagnostics, ns) = step(&mut tracer, "san.finish", || vm.backend_mut().finish());
    phases.finish_ns = ns;
    let cost = config.cost_model.cost(&exec, &checks);
    let legacy_check_fraction = if checks.type_checks > 0 {
        checks.legacy_type_checks as f64 / checks.type_checks as f64
    } else {
        0.0
    };
    let report = RunReport {
        sanitizer: kind,
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
    let output = vm.output().to_vec();
    if let (Some(t), Some(id)) = (tracer, root) {
        t.exit(id);
    }
    Execution {
        report,
        output,
        hooks: sink.get(),
        phases,
    }
}

/// Compile through the front end's public phases: `(program, tokens,
/// lex_ns, parse_ns, lower_ns)`.  `parser::parse` lexes again internally,
/// so `parse_ns` here is the parse call minus the separate lex.
pub fn compile_phases(source: &str) -> (Program, usize, u64, u64, u64) {
    let start = Instant::now();
    let tokens = minic::lexer::lex(source)
        .expect("generated source lexes")
        .len();
    let lex_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let unit = minic::parser::parse(source).expect("generated source parses");
    let parse_ns = (start.elapsed().as_nanos() as u64).saturating_sub(lex_ns);
    let start = Instant::now();
    let program = minic::lower::lower(&unit, source.lines().count()).expect("source lowers");
    let lower_ns = start.elapsed().as_nanos() as u64;
    (program, tokens, lex_ns, parse_ns, lower_ns)
}

/// Compare a report (and its output, where the path exposes it) against
/// the slow-tier oracle.  Everything must match except the tier counters
/// and `cost`; the fast tier may elide checks, so bounds and access checks
/// are compared as the sum bounds + access + elided.
pub fn oracle_diffs(
    context: &str,
    got: &RunReport,
    output: Option<&[String]>,
    oracle: &Execution,
    diffs: &mut Vec<String>,
) {
    let want = &oracle.report;
    let mut diff = |field: &str, same: bool| {
        if !same {
            diffs.push(format!(
                "{context}: {field} differs from the slow-tier oracle"
            ));
        }
    };
    diff("result", got.result == want.result);
    diff("vm_error", got.vm_error == want.vm_error);
    diff("errors", got.errors == want.errors);
    diff("diagnostics", got.diagnostics == want.diagnostics);
    if let Some(output) = output {
        diff("output", output == oracle.output.as_slice());
    }
    let check_sum =
        |r: &RunReport| r.checks.bounds_checks + r.checks.access_checks + r.exec.checks_elided;
    diff("check count sum", check_sum(got) == check_sum(want));
    let strip = |r: &RunReport| {
        let mut exec = r.exec;
        let mut checks = r.checks;
        (exec.tier_promotions, exec.fast_calls, exec.checks_elided) = (0, 0, 0);
        (checks.bounds_checks, checks.access_checks) = (0, 0);
        (exec, checks)
    };
    diff("other counters", strip(got) == strip(want));
    diff(
        "peak memory",
        got.peak_memory_bytes == want.peak_memory_bytes,
    );
    diff("static checks", got.static_checks == want.static_checks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use effective_san::workloads::{catalogue, Scale, SpecBenchmark};
    use effective_san::{run_program, ErrorKind};

    const KINDS: [SanitizerKind; 4] = [
        SanitizerKind::EffectiveFull,
        SanitizerKind::EffectiveBounds,
        SanitizerKind::AddressSanitizer,
        SanitizerKind::Memcheck,
    ];

    fn programs() -> Vec<(Program, &'static str, i64)> {
        let perl = SpecBenchmark::by_name("perlbench").expect("perlbench exists");
        let bug = &catalogue()[0];
        vec![
            (
                effective_san::compile(&perl.source(Scale::Test)).expect("compiles"),
                "bench_main",
                Scale::Test.n(),
            ),
            (
                effective_san::compile(&crate::inputs::bug_source(bug)).expect("compiles"),
                "probe_main",
                3,
            ),
        ]
    }

    #[test]
    fn real_hook_wrapper_reports_equal_run_program() {
        for (program, entry, n) in programs() {
            for kind in KINDS {
                let want = run_program(&program, entry, &[n], &RunConfig::for_sanitizer(kind));
                for backend in [Backend::Plain, Backend::Counted(CheckHooks::Real)] {
                    let got = execute(&program, entry, &[n], kind, backend, Tier::Default, None);
                    let mut diffs = Vec::new();
                    sweep::diff_reports(
                        &format!("{kind} {backend:?}"),
                        &got.report,
                        &want,
                        &mut diffs,
                    );
                    assert!(diffs.is_empty(), "{diffs:?}");
                }
            }
        }
    }

    #[test]
    fn traced_wrapper_matches_the_slow_tier_oracle_and_counts_hooks() {
        for (program, entry, n) in programs() {
            let kind = SanitizerKind::EffectiveFull;
            let mut tracer = Tracer::default();
            tracer.next_op();
            let real = execute(
                &program,
                entry,
                &[n],
                kind,
                Backend::Counted(CheckHooks::Real),
                Tier::Default,
                Some(&mut tracer),
            );
            let oracle = execute(
                &program,
                entry,
                &[n],
                kind,
                Backend::Plain,
                Tier::SlowOnly,
                None,
            );
            let mut diffs = Vec::new();
            oracle_diffs(entry, &real.report, Some(&real.output), &oracle, &mut diffs);
            assert!(diffs.is_empty(), "{diffs:?}");
            assert_eq!(real.hooks.type_checks, real.report.checks.type_checks);
            assert_eq!(real.hooks.bounds_checks, real.report.checks.bounds_checks);
            assert!(real.hooks.allocs > 0);
            let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "core.run",
                    "instrument.pass",
                    "vm.setup",
                    "vm.run",
                    "san.finish"
                ]
            );
            // Null hooks skip the checks, so nothing is reported, and the
            // program still computes the same result.
            let null = execute(
                &program,
                entry,
                &[n],
                kind,
                Backend::Counted(CheckHooks::Null),
                Tier::Default,
                None,
            );
            assert_eq!(null.report.result, real.report.result);
            assert_eq!(null.report.checks.type_checks, 0);
        }
    }

    #[test]
    fn oracle_diff_flags_a_wrong_report() {
        let (program, entry, n) = programs().remove(1);
        let kind = SanitizerKind::EffectiveFull;
        let oracle = execute(
            &program,
            entry,
            &[n],
            kind,
            Backend::Plain,
            Tier::SlowOnly,
            None,
        );
        assert!(oracle.report.errors.issues_of(ErrorKind::UseAfterFree) > 0);
        let mut wrong = oracle.report.clone();
        wrong.result = Some(-1);
        wrong.checks.bounds_checks += 1;
        let mut diffs = Vec::new();
        oracle_diffs("x", &wrong, None, &oracle, &mut diffs);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
    }
}
