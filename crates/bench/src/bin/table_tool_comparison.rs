//! Regenerate the §6.2 tool comparison: overhead and total dynamic checks
//! of every sanitizer on the same workload subset.
//!
//! Pass backend names — or set the `SAN_BACKENDS` environment variable —
//! to restrict the comparison, e.g.
//! `table_tool_comparison EffectiveSan asan LowFat mpx` (any spelling the
//! `SanitizerKind` parses).  With neither, every backend in
//! `SanitizerKind::ALL` is compared.  Each benchmark compiles once and its backends run on scoped
//! threads; `SAN_PARALLEL=0` falls back to a sequential sweep.

use effective_san::{Parallelism, SanitizerKind};

fn main() {
    let scale = bench::scale_from_env();
    let parallelism = Parallelism::from_env();
    let selected = bench::backends_from_args();
    let sanitizers = if selected.is_empty() {
        effective_san::default_backends()
    } else {
        selected
    };
    // The subset keeps the comparison fast while covering C, C++ and both
    // check-heavy and allocation-heavy profiles.
    let names = ["perlbench", "gcc", "h264ref", "xalancbmk", "dealII", "lbm"];
    println!(
        "§6.2 tool comparison (scale {scale:?}, workloads: {})\n",
        names.join(", ")
    );
    let comparison = effective_san::tool_comparison_with(&names, scale, &sanitizers, parallelism);
    println!("{:<22} {:>14} {:>18}", "tool", "overhead", "dynamic checks");
    bench::rule(58);
    for (kind, overhead, checks) in &comparison.tools {
        println!("{:<22} {:>13.0}% {:>18}", kind.name(), overhead, checks);
    }
    bench::rule(58);
    println!(
        "\nPaper reference points: EffectiveSan 288%, EffectiveSan-bounds 115% (vs ASan 73-92%,\n\
         LowFat 54%, SoftBound ~67-100%, MPX ~200%), EffectiveSan-type 49% (vs TypeSan 12.1%,\n\
         HexType 3.3% on far fewer checks).  EffectiveSan performs far more checks than the\n\
         specialised tools ({} here vs {} for {}), which is the paper's explanation for the\n\
         higher overhead at a better overhead-per-check ratio.",
        comparison
            .tools
            .iter()
            .find(|(k, ..)| *k == SanitizerKind::EffectiveFull)
            .map(|(_, _, c)| *c)
            .unwrap_or(0),
        comparison
            .tools
            .iter()
            .find(|(k, ..)| *k == SanitizerKind::TypeSan)
            .map(|(_, _, c)| *c)
            .unwrap_or(0),
        SanitizerKind::TypeSan.name(),
    );
}
