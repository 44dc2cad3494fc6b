//! Regenerate Figure 9: peak memory of uninstrumented vs EffectiveSan
//! (full) runs.

use effective_san::{spec_experiment, Parallelism, SanitizerKind};

fn main() {
    let scale = bench::scale_from_env();
    println!("Figure 9 — memory usage (scale {scale:?}, peak simulated RSS)\n");
    let experiment = spec_experiment(
        None,
        scale,
        &[SanitizerKind::None, SanitizerKind::EffectiveFull],
        Parallelism::from_env(),
    );
    println!(
        "{:<12} {:>18} {:>18} {:>12}",
        "benchmark", "uninstrumented", "EffectiveSan", "overhead"
    );
    bench::rule(66);
    for row in &experiment.rows {
        let base = row.report(SanitizerKind::None).unwrap();
        let full = row.report(SanitizerKind::EffectiveFull).unwrap();
        println!(
            "{:<12} {:>15} KiB {:>15} KiB {:>11.0}%",
            row.name,
            base.peak_memory_bytes / 1024,
            full.peak_memory_bytes / 1024,
            row.memory_overhead_pct(SanitizerKind::EffectiveFull)
                .unwrap_or(0.0),
        );
    }
    bench::rule(66);
    println!(
        "mean memory overhead: {:.0}%   (paper: ~12% overall, vs 237% for AddressSanitizer)",
        experiment.mean_memory_overhead_pct(SanitizerKind::EffectiveFull)
    );
}
