//! Regenerate Figure 8: per-benchmark overheads of sanitizer backends
//! relative to the uninstrumented baseline.
//!
//! By default the three EffectiveSan variants are compared (the figure's
//! shape).  Pass backend names — or set the `SAN_BACKENDS` environment
//! variable — to time a different set, e.g.
//! `figure8_spec_timings EffectiveSan asan SoftBound` (any spelling
//! `SanitizerKind` parses); the uninstrumented baseline is always run
//! as the reference.  `SAN_PARALLEL=0` disables the per-backend threads.

use effective_san::{sanitizers_with_baseline, spec_experiment, Parallelism, SanitizerKind};

fn main() {
    let scale = bench::scale_from_env();
    let parallelism = Parallelism::from_env();
    // Deduplicate and prepend the uninstrumented reference; fall back to
    // the figure's three EffectiveSan variants when no (non-baseline)
    // backend was requested.
    let sanitizers = sanitizers_with_baseline(&bench::backends_from_args());
    let mut variants: Vec<SanitizerKind> = sanitizers.iter().copied().skip(1).collect();
    if variants.is_empty() {
        variants = vec![
            SanitizerKind::EffectiveFull,
            SanitizerKind::EffectiveBounds,
            SanitizerKind::EffectiveType,
        ];
    }
    let sanitizers = sanitizers_with_baseline(&variants);

    println!("Figure 8 — SPEC2006-like timings (scale {scale:?}, cost-model overheads)\n");
    let experiment = spec_experiment(None, scale, &sanitizers, parallelism);

    print!("{:<12} {:>14}", "benchmark", "base cost");
    for kind in &variants {
        print!(" {:>19}", format!("{} %", kind.name()));
    }
    println!(" {:>14}", "wall ms");
    let width = 28 + 20 * variants.len() + 15;
    bench::rule(width);
    for row in &experiment.rows {
        let base = row.report(SanitizerKind::None).unwrap();
        print!("{:<12} {:>14.0}", row.name, base.cost);
        for kind in &variants {
            print!(" {:>18.0}%", row.overhead_pct(*kind).unwrap_or(0.0));
        }
        let wall = variants
            .first()
            .and_then(|k| row.report(*k))
            .map(|r| r.wall_time.as_secs_f64() * 1000.0)
            .unwrap_or(0.0);
        println!(" {:>14.1}", wall);
    }
    bench::rule(width);
    print!("geometric mean:");
    for kind in &variants {
        print!(
            "   {} {:.0}%",
            kind.name(),
            experiment.mean_overhead_pct(*kind)
        );
    }
    println!();
    println!("paper:             full   288%   bounds   115%   type    49%");
}
