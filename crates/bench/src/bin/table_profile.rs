//! Hot-site / hot-function profile tables from the VM's site profiler.
//!
//! Runs the selected benchmarks under the selected backends with
//! [`RunConfig::profile`] enabled and renders the merged profile: the
//! top-N check sites with per-site hit/miss counts and the top-N
//! functions with their instruction and call counts — which check sites
//! and functions a run spends its time in.  Every row names its program
//! (`mcf/bench_main`), so same-named functions of different benchmarks
//! stay apart; the backends of one benchmark share its rows.  Profiling is observational,
//! but its sampling costs a few percent, so wall-clock timing is left to
//! `perfbench/`.
//!
//! Usage: `table_profile [--json] [--top N] [--benchmarks a,b,c] [backend...]`
//!
//! For example, `table_profile --benchmarks mcf,gobmk,astar,xalancbmk none
//! EffectiveSan bounds asan` profiles the check-heavy benchmark subset
//! under the uninstrumented reference, EffectiveSan-full, its
//! bounds-only variant and AddressSanitizer.
//!
//! Backend-name arguments select which backends run (default:
//! EffectiveSan-full); `SCALE` selects the workload scale as in the other
//! bins.  With `--json` the full merged profile (every site, every
//! function) is emitted as one `effective-san-profile/4` JSON object.

use effective_san::obs::ProfileReport;
use effective_san::workloads::SpecBenchmark;
use effective_san::{minic, run_program_profiled, RunConfig, SanitizerKind};

fn main() {
    let scale = bench::scale_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mut top_n: usize = 12;
    let mut benchmarks: Option<Vec<String>> = None;
    let mut named: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {}
            "--top" => {
                let v = it.next().unwrap_or_else(|| usage("--top needs a value"));
                top_n = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --top value `{v}`")));
            }
            "--benchmarks" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--benchmarks needs a value"));
                benchmarks = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            other => named.push(other.to_string()),
        }
    }
    let backends = if named.is_empty() {
        vec![SanitizerKind::EffectiveFull]
    } else {
        bench::parse_backend_names(&named)
    };
    let benchmarks: Vec<SpecBenchmark> = match &benchmarks {
        Some(names) => names
            .iter()
            .map(|n| {
                SpecBenchmark::by_name(n)
                    .unwrap_or_else(|| usage(&format!("unknown benchmark `{n}`")))
            })
            .collect(),
        None => SpecBenchmark::all(),
    };

    let mut merged = ProfileReport::default();
    for bench_def in &benchmarks {
        let source = bench_def.source(scale);
        let program = minic::compile(&source)
            .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", bench_def.name));
        for &backend in &backends {
            let config = RunConfig {
                profile: true,
                ..RunConfig::for_sanitizer(backend)
            };
            let (_, prof) = run_program_profiled(&program, "bench_main", &[scale.n()], &config);
            if let Some(prof) = prof {
                merged.merge(&prof.qualified(bench_def.name));
            }
        }
    }

    if json {
        println!(
            "{{\"schema\":\"effective-san-profile/4\",\"scale\":\"{scale:?}\",\"profile\":{}}}",
            merged.to_json()
        );
        return;
    }

    let backend_names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    println!(
        "site profile (scale {scale:?}, backends {}, top {top_n})\n",
        backend_names.join(",")
    );
    print!("{}", merged.render_table(top_n));
    println!(
        "\n{} check sites, {} functions",
        merged.sites.len(),
        merged.funcs.len()
    );
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "table_profile: {msg}\n\
         usage: table_profile [--json] [--top N] [--benchmarks a,b,c] [backend...]"
    );
    std::process::exit(2);
}
