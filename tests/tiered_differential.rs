//! Two-tier differential suite: the slow tier is the semantic oracle for
//! the fast tier.
//!
//! Every program here runs twice per backend — once under
//! `VmConfig::default()`, which translates each function at its first
//! call and runs *every* activation in the fast tier (asserted:
//! `fast_calls == calls`), and once with `promote_after_calls:
//! u32::MAX`, which runs every activation in the slow tier.  Everything
//! observable must be bit-identical: the run result or `VmError`, every
//! `ExecStats` counter except the two tier counters themselves, the
//! backend's unified check statistics, its error statistics, the
//! rendered diagnostics, and the program's `print` output.
//!
//! There is no relaxation: the fast tier runs every check the slow tier
//! runs, so each backend check counter (`bounds_checks`, `access_checks`,
//! and the rest of `SanStats`) matches exactly, and `checks_elided` is 0
//! in both tiers.  Nothing removes checks, so both tiers see the check
//! stream the instrumentation emitted, and every check instruction either
//! tier dispatches is exactly one sanitizer hook call.
//!
//! The corpus is deliberately the adversarial end of the repo: all ten
//! conformance scenarios (which fault, halt and quarantine) across all
//! 13 backends, the spec workloads at test scale (loop-heavy, with
//! every superinstruction form), an abort-after-one run that makes the
//! fast tier halt mid-function, and instruction budgets that expire
//! inside a fast-tier loop.

use std::sync::Arc;

use effective_san::effective_runtime::{ErrorStats, ReporterConfig, RuntimeConfig};
use effective_san::minic::Program;
use effective_san::vm::{ExecStats, Value, Vm, VmConfig, VmError};
use effective_san::workloads::SpecBenchmark;
use effective_san::{instrument, minic, Diagnostic, ReportMode, SanStats, SanitizerKind, Scale};

/// Everything observable about one execution, minus the tier counters.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Value, VmError>,
    exec: ExecStats,
    checks: SanStats,
    errors: ErrorStats,
    diagnostics: Vec<Diagnostic>,
    output: Vec<String>,
}

fn run_once(
    program: &Arc<Program>,
    kind: SanitizerKind,
    entry: &str,
    args: &[Value],
    abort_after: Option<u64>,
    fast: bool,
) -> Observed {
    let mut config = VmConfig {
        sanitizer: kind,
        runtime: RuntimeConfig {
            reporter: ReporterConfig {
                mode: ReportMode::Log,
                abort_after,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    if !fast {
        config.promote_after_calls = u32::MAX;
    }
    let mut vm = Vm::new(program.clone(), config);
    let result = vm.run(entry, args);
    let mut exec = vm.stats();
    if fast {
        assert!(
            exec.tier_promotions > 0,
            "the default config never translated — the fast tier was not exercised"
        );
        assert_eq!(
            exec.fast_calls, exec.calls,
            "the default config ran an activation in the slow tier"
        );
    } else {
        assert_eq!(exec.tier_promotions, 0, "disabled config promoted anyway");
        assert_eq!(exec.fast_calls, 0, "disabled config ran the fast tier");
    }
    // The tier counters are the only fields allowed to differ.
    exec.tier_promotions = 0;
    exec.fast_calls = 0;
    Observed {
        result,
        exec,
        checks: vm.backend().stats(),
        errors: vm.backend().error_stats(),
        diagnostics: vm.backend_mut().finish(),
        output: vm.output().to_vec(),
    }
}

/// Every dispatched check instruction is exactly one sanitizer hook
/// call.  Not for budget-limited runs: a run cut off by
/// `VmError::InstructionLimit` counts the check it stopped on but never
/// calls that check's hook.
fn assert_one_hook_per_check(observed: &Observed, context: &str) {
    let c = &observed.checks;
    let hooks = c.type_checks
        + c.cast_checks
        + c.bounds_gets
        + c.bounds_narrows
        + c.bounds_checks
        + c.access_checks;
    assert_eq!(
        observed.exec.check_instructions, hooks,
        "{context}: check instructions dispatched vs sanitizer hook calls"
    );
}

fn assert_tiers_agree(source: &str, kind: SanitizerKind, args: &[Value], abort_after: Option<u64>) {
    let program = minic::compile(source).expect("compile");
    let instrumented = Arc::new(instrument(&program, kind));
    let fast = run_once(&instrumented, kind, "run", args, abort_after, true);
    let slow = run_once(&instrumented, kind, "run", args, abort_after, false);
    assert_eq!(
        fast, slow,
        "fast and slow tier disagree under {kind} (abort_after={abort_after:?})"
    );
    assert_one_hook_per_check(&slow, &format!("{kind} (abort_after={abort_after:?})"));
}

/// The conformance scenarios (same sources as `conformance.rs`), chosen
/// because between them they fault in every way the runtime can fault:
/// spatial and temporal errors, type confusion, faults inside a builtin,
/// quarantine churn, and clean completion.
const FAULTING_SOURCES: &[&str] = &[
    // oob-write
    "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        a[16] = n;
        free(a);
        return 0;
    }",
    // oob-read in a loop (faults mid-scan)
    "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        int s = 0;
        for (int i = 0; i <= 16; i++) { s += a[i]; }
        free(a);
        return s + n;
    }",
    // use-after-free
    "struct uaf_obj { int payload[4]; };
    int uaf_read(struct uaf_obj *o) { return o->payload[0]; }
    int run(int n) {
        struct uaf_obj *o = (struct uaf_obj *)malloc(sizeof(struct uaf_obj));
        o->payload[0] = n;
        free(o);
        return uaf_read(o);
    }",
    // bad downcast
    "class Grammar { virtual int gtype(); int gkind; };
    class SchemaGrammar : public Grammar { int schema_info; };
    class DTDGrammar : public Grammar { int dtd_info; };
    Grammar *next_element(void) {
        DTDGrammar *d = new DTDGrammar;
        d->gkind = 2;
        return (Grammar *)d;
    }
    int run(int n) {
        Grammar *g = next_element();
        SchemaGrammar *sg = (SchemaGrammar *)g;
        int x = sg->schema_info;
        sg->gkind = x + n;
        return 0;
    }",
    // sub-object overflow
    "struct account { int number[8]; float balance; };
    int run(int n) {
        struct account *a = (struct account *)malloc(sizeof(struct account));
        int *num = a->number;
        num[8] = n;
        free(a);
        return 0;
    }",
    // red-zone skip
    "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        a[24] = n;
        free(a);
        return 0;
    }",
    // far-OOB memcpy (faults inside the builtin, between fast-tier ticks)
    "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        int *b = (int *)malloc(16 * sizeof(int));
        b[0] = n;
        memcpy(a, b, 256);
        free(b);
        free(a);
        return 0;
    }",
    // quarantine exhaustion
    "int qread(int *p) { return p[0]; }
    int run(int n) {
        int **blocks = (int **)malloc(80 * sizeof(int *));
        for (int i = 0; i < 80; i++) {
            blocks[i] = (int *)malloc(16 * sizeof(int));
        }
        int *first = blocks[0];
        first[0] = n;
        for (int i = 0; i < 80; i++) { free(blocks[i]); }
        free(blocks);
        return qread(first);
    }",
    // uaf-between-dominated-checks: the second `d->a` access repeats the
    // first, but the intervening `free(dead)` can rebind the very
    // allocation `d` points into (the last call passes dead == d).  A
    // fast tier that skipped the repeated check would hide the UAF, so
    // this source fails the differential if it does.
    "struct duo { int a; int b; };
    int touch(struct duo *d, struct duo *dead) {
        d->a = d->a + 1;
        free(dead);
        return d->a;
    }
    int run(int n) {
        struct duo *s1 = (struct duo *)malloc(sizeof(struct duo));
        struct duo *s2 = (struct duo *)malloc(sizeof(struct duo));
        struct duo *v = (struct duo *)malloc(sizeof(struct duo));
        v->a = n;
        touch(v, s1);
        touch(v, s2);
        return touch(v, v);
    }",
    // same-type reuse-after-free
    "struct same_obj { int field[6]; };
    int same_read(struct same_obj *o) { return o->field[0]; }
    int run(int n) {
        struct same_obj *a = (struct same_obj *)malloc(sizeof(struct same_obj));
        a->field[0] = n;
        free(a);
        struct same_obj *b = (struct same_obj *)malloc(sizeof(struct same_obj));
        b->field[0] = 5;
        int v = same_read(a);
        free(b);
        return v;
    }",
];

#[test]
fn faulting_scenarios_agree_across_all_backends() {
    for kind in SanitizerKind::ALL {
        for source in FAULTING_SOURCES {
            assert_tiers_agree(source, kind, &[Value::Int(1)], None);
        }
    }
}

#[test]
fn abort_after_halts_identically_in_both_tiers() {
    // A loop that faults on every iteration: with abort_after=1 the
    // backend halts the VM mid-loop, which under the default config
    // happens inside the fast tier (and inside a fused superinstruction's
    // check half).  The halt point, counters and diagnostics must match
    // the slow tier exactly.
    let source = "int run(int n) {
        int *a = (int *)malloc(16 * sizeof(int));
        int s = 0;
        for (int i = 0; i < 64; i++) { s += a[16 + i]; }
        free(a);
        return s + n;
    }";
    for kind in [
        SanitizerKind::EffectiveFull,
        SanitizerKind::EffectiveBounds,
        SanitizerKind::AddressSanitizer,
        SanitizerKind::Memcheck,
    ] {
        assert_tiers_agree(source, kind, &[Value::Int(1)], Some(1));
    }
}

#[test]
fn spec_workloads_agree_on_the_check_heavy_backends() {
    // Loop-heavy real workloads at test scale: every function runs in the
    // fast tier from its first call, every superinstruction form is
    // exercised, and the full check-count surface (SanStats) must still
    // match to the last event.
    for name in ["mcf", "gobmk", "astar", "xalancbmk"] {
        let bench = SpecBenchmark::by_name(name).expect("known benchmark");
        let source = bench.source(Scale::Test);
        let program = minic::compile(&source).expect("workload compiles");
        for kind in [
            SanitizerKind::None,
            SanitizerKind::EffectiveFull,
            SanitizerKind::EffectiveBounds,
            SanitizerKind::AddressSanitizer,
        ] {
            let instrumented = Arc::new(instrument(&program, kind));
            let args = [Value::Int(Scale::Test.n())];
            let fast = run_once(&instrumented, kind, "bench_main", &args, None, true);
            let slow = run_once(&instrumented, kind, "bench_main", &args, None, false);
            assert_eq!(fast, slow, "{name} under {kind}: tiers disagree");
            assert_one_hook_per_check(&slow, &format!("{name} under {kind}"));
        }
    }
}

#[test]
fn instruction_limit_fires_at_the_same_instruction() {
    // Exhaust the budget mid-loop: the fast tier's register-resident
    // budget counter must cut off after exactly as many counted events as
    // the slow tier's per-instruction comparison.
    let source = "int run(int n) {
        int s = 0;
        for (int i = 0; i < 100000; i++) { s += i; }
        return s + n;
    }";
    let program = minic::compile(source).expect("compile");
    for kind in [SanitizerKind::None, SanitizerKind::EffectiveFull] {
        let instrumented = Arc::new(instrument(&program, kind));
        for budget in [1u64, 7, 64, 1000, 4096] {
            let mut observed = Vec::new();
            for fast in [true, false] {
                let mut config = VmConfig {
                    sanitizer: kind,
                    max_instructions: budget,
                    ..Default::default()
                };
                if !fast {
                    config.promote_after_calls = u32::MAX;
                }
                let mut vm = Vm::new(instrumented.clone(), config);
                let result = vm.run("run", &[Value::Int(1)]);
                let mut exec = vm.stats();
                if fast {
                    assert_eq!(exec.fast_calls, exec.calls, "budget {budget} under {kind}");
                }
                exec.tier_promotions = 0;
                exec.fast_calls = 0;
                observed.push((result, exec));
            }
            assert_eq!(
                observed[0], observed[1],
                "budget {budget} under {kind}: limit fired differently"
            );
        }
    }
}
