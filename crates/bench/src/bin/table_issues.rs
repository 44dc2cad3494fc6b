//! Regenerate the §6.1/§6.3 issue taxonomy: which error classes were found
//! in which benchmark, versus the paper's findings.
//!
//! With `--json`, renders the same structured report `sweep --json` and
//! `sweep --connect --json` emit: an `issues` array of per-diagnostic
//! kind / expected / observed / offset / bounds fields plus a `locations`
//! rollup aggregating issue counts per source location across benchmarks
//! and backends (the sweep subsystem's hand-rolled encoder; the serde
//! shim is a no-op).  Backend-name arguments select exactly which
//! backends run and are reported (default: EffectiveSan); in table mode
//! each backend gets its own taxonomy table followed by a per-issue
//! table — one line per distinct `(source location, error class)` site
//! with its occurrence count, the benchmarks that flagged it, and a
//! representative expected/observed pair (the human-readable face of the
//! JSON `issues`/`locations` export).

use std::collections::BTreeMap;

use effective_san::workloads::SpecBenchmark;
use effective_san::{issue_breakdown, spec_experiment, Parallelism, SanitizerKind, SpecExperiment};

fn main() {
    let scale = bench::scale_from_env();
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let backends = {
        // Everything but `--json` is a backend name, as in the other bins.
        let named: Vec<String> = std::env::args().skip(1).filter(|a| a != "--json").collect();
        if named.is_empty() {
            vec![SanitizerKind::EffectiveFull]
        } else {
            bench::parse_backend_names(&named)
        }
    };
    let experiment = spec_experiment(None, scale, &backends, Parallelism::from_env());

    if json {
        println!("{}", sweep::json::experiment_report_json(&experiment, None));
        return;
    }

    println!("§6.1 issue taxonomy (scale {scale:?})\n");
    for &backend in &backends {
        let breakdown = issue_breakdown(&experiment, backend);
        println!(
            "{:<12} {:>8} {:>10}  classes found under {}",
            "benchmark", "paper", "measured", backend
        );
        bench::rule(100);
        for bench_def in SpecBenchmark::all() {
            let classes = breakdown.get(bench_def.name).cloned().unwrap_or_default();
            let measured: u64 = classes.iter().map(|(_, n)| n).sum();
            let rendered: Vec<String> = classes
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(k, n)| format!("{k}={n}"))
                .collect();
            println!(
                "{:<12} {:>8} {:>10}  {}",
                bench_def.name,
                bench_def.paper_issues,
                measured,
                rendered.join(", ")
            );
        }
        bench::rule(100);
        println!();
        print_issue_table(&experiment, backend);
    }
    println!("Seeded-bug catalogue (what each class models in the paper):");
    for bug in effective_san::workloads::catalogue() {
        println!("  {:<26} {}", bug.id, bug.models);
    }
}

/// One line per distinct `(location, kind)` issue site under `backend`:
/// how often it fired, which benchmarks flagged it, and a representative
/// expected/observed pair — the same aggregation as the JSON `locations`
/// rollup, rendered for humans.
fn print_issue_table(experiment: &SpecExperiment, backend: SanitizerKind) {
    struct Site {
        count: usize,
        benchmarks: BTreeMap<String, ()>,
        expected: String,
        observed: String,
    }
    let mut sites: BTreeMap<(String, &'static str), Site> = BTreeMap::new();
    for row in &experiment.rows {
        for report in &row.reports {
            if report.sanitizer != backend {
                continue;
            }
            for d in &report.diagnostics {
                let site = sites
                    .entry((d.location.to_string(), d.kind.name()))
                    .or_insert_with(|| Site {
                        count: 0,
                        benchmarks: BTreeMap::new(),
                        expected: d.expected.clone(),
                        observed: d.observed.clone(),
                    });
                site.count += 1;
                site.benchmarks.insert(row.name.clone(), ());
            }
        }
    }
    if sites.is_empty() {
        println!("per-issue sites under {backend}: none\n");
        return;
    }
    println!("per-issue sites under {backend}");
    println!(
        "{:<34} {:<24} {:>6}  {:<18} expected -> observed",
        "location", "kind", "count", "benchmarks"
    );
    bench::rule(118);
    for ((location, kind), site) in &sites {
        let benchmarks: Vec<&str> = site.benchmarks.keys().map(String::as_str).collect();
        println!(
            "{:<34} {:<24} {:>6}  {:<18} {} -> {}",
            location,
            kind,
            site.count,
            benchmarks.join(","),
            site.expected,
            site.observed
        );
    }
    bench::rule(118);
    println!();
}
