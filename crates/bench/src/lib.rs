//! # bench
//!
//! Benchmark harnesses that regenerate every table and figure of the
//! paper's evaluation on the synthetic workloads (measured-vs-cost-model
//! Figure 8 overheads come from the repository benchmark; see
//! `perfbench/README.md`).
//!
//! * Criterion benches (`cargo bench -p bench`): micro-benchmarks of the
//!   layout hash table and the runtime checks, plus a small SPEC-slice
//!   timing comparison.
//! * Figure/table binaries (`cargo run -p bench --bin figure7_spec_summary`
//!   etc.): print the corresponding table with both the paper's reported
//!   numbers and the measured ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use effective_san::{SanitizerKind, Scale};

/// Resolve the workload scale from the `SCALE` environment variable
/// (`test`, `small`, `ref` or `reference`, in any case; unset or empty
/// means `small`).  An unknown value prints the error and exits with
/// status 2.
pub fn scale_from_env() -> Scale {
    let value = std::env::var("SCALE").unwrap_or_default();
    if value.is_empty() {
        return Scale::Small;
    }
    value.parse().unwrap_or_else(|e| {
        eprintln!("invalid SCALE value: {e}");
        std::process::exit(2);
    })
}

/// Parse explicit backend names (every spelling `SanitizerKind`'s
/// `FromStr` accepts: canonical names, `asan`, `full`, `bounds`,
/// `memcheck`, `mpx`, `escapes-off`, …) with
/// [`parse_backend_list`](effective_san::parse_backend_list), so an
/// argument may itself be a comma-separated list.  On an unknown name,
/// prints the error (which lists the registered backends) and exits with
/// status 2; a duplicated backend — even under two spellings — is likewise
/// rejected rather than silently run twice.
pub fn parse_backend_names(names: &[String]) -> Vec<SanitizerKind> {
    effective_san::parse_backend_list(&names.join(",")).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Parse sanitizer backend names from the command line
/// ([`parse_backend_names`] over the arguments), falling back to the
/// `SAN_BACKENDS` environment variable when no arguments were given.
/// Returns an empty list when neither selects anything; unknown or
/// duplicated names print the error and exit with status 2.
pub fn backends_from_args() -> Vec<SanitizerKind> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        return parse_backend_names(&args);
    }
    match std::env::var("SAN_BACKENDS") {
        Ok(list) => effective_san::parse_backend_list(&list).unwrap_or_else(|e| {
            eprintln!("invalid SAN_BACKENDS value `{list}`: {e}");
            std::process::exit(2);
        }),
        Err(_) => Vec::new(),
    }
}

/// Print a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
