//! Experiment runners for the paper's evaluation (Figures 7–10 and the
//! §6.2 tool comparison).
//!
//! Each function runs the synthetic workloads under the requested
//! sanitizers and returns structured results; the `bench` crate's binaries
//! format them as the corresponding table/figure.  Measured Figure 8
//! overheads, beside the cost model's, come from the repository
//! benchmark (`perfbench/README.md`).

use std::collections::BTreeMap;

use instrument::SanitizerKind;
use san_api::ParseSanitizerKindError;
use serde::Serialize;
use workloads::{FirefoxWorkload, Scale, SpecBenchmark, BROWSER_BENCHMARKS};

use crate::pipeline::{geometric_mean_overhead, run_program, RunConfig, RunReport};

/// How a (benchmark × backend) sweep is executed.
///
/// Every backend owns its own simulated address space (a self-contained
/// `Box<dyn Sanitizer>`), so the per-backend runs of one benchmark are
/// independent and can fan out across scoped threads — the pattern
/// [`firefox_experiment`] established.  Results are identical either way
/// (see the `parallel_sweep` integration test); `Parallel` only changes
/// wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub enum Parallelism {
    /// Run every backend of every benchmark on the calling thread.
    Sequential,
    /// Run each backend of a benchmark on its own scoped thread.
    #[default]
    Parallel,
}

impl Parallelism {
    /// Does this mode fan out across threads?
    pub fn is_parallel(self) -> bool {
        matches!(self, Parallelism::Parallel)
    }

    /// Resolve the mode from the `SAN_PARALLEL` environment variable.
    /// Unset or empty selects the default ([`Parallelism::Parallel`]);
    /// any other value must be one of the spellings [`Parallelism`]'s
    /// `FromStr` accepts.
    ///
    /// # Errors
    ///
    /// Returns [`ParseParallelismError`] — naming the bad value and the
    /// accepted forms — when the variable is set to an unknown spelling.
    /// (Unknown values used to silently select `Parallel`, which made a
    /// typo like `SAN_PARALLEL=sequental` benchmark the wrong mode.)
    pub fn try_from_env() -> Result<Self, ParseParallelismError> {
        match std::env::var("SAN_PARALLEL") {
            Ok(value) if !value.is_empty() => value.parse(),
            _ => Ok(Parallelism::default()),
        }
    }

    /// [`Parallelism::try_from_env`], panicking with the descriptive parse
    /// error on an invalid value — a typo in the environment should be
    /// loud, not silently benchmark the wrong mode.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("invalid SAN_PARALLEL value: {e}"))
    }
}

/// Error returned when a string names no [`Parallelism`] mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseParallelismError {
    /// The value that failed to parse.
    pub value: String,
}

impl std::fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown parallelism `{}` (accepted: `parallel`/`1`/`true`/`on`/`yes` or \
             `sequential`/`seq`/`0`/`false`/`off`/`no`, case-insensitive)",
            self.value
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl std::str::FromStr for Parallelism {
    type Err = ParseParallelismError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_lowercase().as_str() {
            "0" | "false" | "off" | "no" | "seq" | "sequential" => Ok(Parallelism::Sequential),
            "1" | "true" | "on" | "yes" | "parallel" => Ok(Parallelism::Parallel),
            _ => Err(ParseParallelismError {
                value: s.to_string(),
            }),
        }
    }
}

/// Error returned by [`parse_backend_list`]: either a name that matches no
/// registered backend, or the same backend selected twice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendListError {
    /// A segment of the list named no registered backend.
    Unknown(ParseSanitizerKindError),
    /// The same backend appeared twice (possibly under two spellings).
    Duplicate {
        /// The spelling of the second occurrence.
        name: String,
        /// The backend both spellings resolve to.
        kind: SanitizerKind,
    },
}

impl std::fmt::Display for BackendListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendListError::Unknown(e) => e.fmt(f),
            BackendListError::Duplicate { name, kind } => write!(
                f,
                "duplicate backend `{name}`: `{kind}` is already selected \
                 (each backend runs once per sweep; drop the repeated name)"
            ),
        }
    }
}

impl std::error::Error for BackendListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendListError::Unknown(e) => Some(e),
            BackendListError::Duplicate { .. } => None,
        }
    }
}

impl From<ParseSanitizerKindError> for BackendListError {
    fn from(e: ParseSanitizerKindError) -> Self {
        BackendListError::Unknown(e)
    }
}

/// Parse a comma/whitespace-separated list of backend names (any spelling
/// [`SanitizerKind`]'s `FromStr` accepts).  Empty segments are skipped.
///
/// # Errors
///
/// Returns [`BackendListError`] on an unknown name or when the same backend
/// is named twice — a duplicate used to be silently dropped, which hid the
/// fact that e.g. `SAN_BACKENDS="asan,AddressSanitizer"` runs one backend,
/// not two.
pub fn parse_backend_list(list: &str) -> Result<Vec<SanitizerKind>, BackendListError> {
    let mut kinds = Vec::new();
    for name in list.split([',', ' ', '\t']).filter(|s| !s.is_empty()) {
        let kind: SanitizerKind = name.parse()?;
        if kinds.contains(&kind) {
            return Err(BackendListError::Duplicate {
                name: name.to_string(),
                kind,
            });
        }
        kinds.push(kind);
    }
    Ok(kinds)
}

/// The backend set selected by the `SAN_BACKENDS` environment variable, or
/// `None` when the variable is unset or empty.
///
/// # Panics
///
/// Panics when the variable names an unknown backend (the message lists the
/// registered names) — a typo in the environment should be loud, not
/// silently widen the sweep to every backend.
pub fn backends_from_env() -> Option<Vec<SanitizerKind>> {
    let list = std::env::var("SAN_BACKENDS").ok()?;
    let kinds = parse_backend_list(&list)
        .unwrap_or_else(|e| panic!("invalid SAN_BACKENDS value `{list}`: {e}"));
    if kinds.is_empty() {
        None
    } else {
        Some(kinds)
    }
}

/// The default backend set for sweeps: `SAN_BACKENDS` when set, every
/// registered backend ([`SanitizerKind::ALL`]) otherwise.
pub fn default_backends() -> Vec<SanitizerKind> {
    backends_from_env().unwrap_or_else(|| SanitizerKind::ALL.to_vec())
}

/// Results for one SPEC-like benchmark under several sanitizers.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SpecRow {
    /// Benchmark name.
    pub name: String,
    /// Whether the original benchmark is C++.
    pub cpp: bool,
    /// Paper-reported kilo-sLOC.
    pub paper_kilo_sloc: f64,
    /// Paper-reported type checks (billions).
    pub paper_type_checks_b: f64,
    /// Paper-reported bounds checks (billions).
    pub paper_bounds_checks_b: f64,
    /// Paper-reported issues found.
    pub paper_issues: u32,
    /// Synthetic workload source size (lines).
    pub source_lines: usize,
    /// One report per sanitizer, in the order requested.
    pub reports: Vec<RunReport>,
}

impl SpecRow {
    /// The report for a given sanitizer, if it was run.
    pub fn report(&self, kind: SanitizerKind) -> Option<&RunReport> {
        self.reports.iter().find(|r| r.sanitizer == kind)
    }

    /// Overhead (cost-model) of `kind` relative to the uninstrumented run.
    pub fn overhead_pct(&self, kind: SanitizerKind) -> Option<f64> {
        let base = self.report(SanitizerKind::None)?;
        Some(self.report(kind)?.overhead_pct(base))
    }

    /// Memory overhead of `kind` relative to the uninstrumented run.
    pub fn memory_overhead_pct(&self, kind: SanitizerKind) -> Option<f64> {
        let base = self.report(SanitizerKind::None)?;
        Some(self.report(kind)?.memory_overhead_pct(base))
    }
}

/// The whole SPEC-like experiment.
#[derive(Clone, Debug, Serialize)]
pub struct SpecExperiment {
    /// The scale the workloads were run at.
    pub scale: Scale,
    /// Per-benchmark rows, in Figure 7 order.
    pub rows: Vec<SpecRow>,
    /// The sanitizers each row was run under.
    pub sanitizers: Vec<SanitizerKind>,
}

impl SpecExperiment {
    /// Mean (geometric) overhead of a sanitizer across all benchmarks.
    pub fn mean_overhead_pct(&self, kind: SanitizerKind) -> f64 {
        let overheads: Vec<f64> = self
            .rows
            .iter()
            .filter_map(|r| r.overhead_pct(kind))
            .collect();
        geometric_mean_overhead(&overheads)
    }

    /// Mean memory overhead of a sanitizer across all benchmarks.
    pub fn mean_memory_overhead_pct(&self, kind: SanitizerKind) -> f64 {
        let overheads: Vec<f64> = self
            .rows
            .iter()
            .filter_map(|r| r.memory_overhead_pct(kind))
            .collect();
        if overheads.is_empty() {
            0.0
        } else {
            overheads.iter().sum::<f64>() / overheads.len() as f64
        }
    }

    /// Total issues found by a sanitizer across the suite.
    pub fn total_issues(&self, kind: SanitizerKind) -> u64 {
        self.rows
            .iter()
            .filter_map(|r| r.report(kind))
            .map(|r| r.errors.distinct_issues)
            .sum()
    }

    /// Total dynamic checks performed by a sanitizer across the suite.
    pub fn total_checks(&self, kind: SanitizerKind) -> u64 {
        self.rows
            .iter()
            .filter_map(|r| r.report(kind))
            .map(|r| r.total_checks())
            .sum()
    }
}

/// Run the named benchmarks (or all 19 when `names` is `None`) at `scale`
/// under every sanitizer in `sanitizers`.
///
/// Each benchmark is compiled once; with [`Parallelism::Parallel`] its
/// per-backend runs then execute on one scoped thread per backend (every
/// backend owns an isolated simulated address space).  Reports are
/// returned in the order of `sanitizers` either way, and are identical to
/// a sequential run.
///
/// # Panics
///
/// Panics on an unknown benchmark name (a misspelled name used to be
/// silently dropped, turning the experiment into a sweep over nothing).
pub fn spec_experiment(
    names: Option<&[&str]>,
    scale: Scale,
    sanitizers: &[SanitizerKind],
    parallelism: Parallelism,
) -> SpecExperiment {
    let benches: Vec<SpecBenchmark> = match names {
        Some(names) => names
            .iter()
            .map(|n| {
                SpecBenchmark::by_name(n).unwrap_or_else(|| {
                    panic!(
                        "unknown SPEC-like benchmark `{n}` (known: {})",
                        SpecBenchmark::names().join(", ")
                    )
                })
            })
            .collect(),
        None => SpecBenchmark::all(),
    };
    let rows = benches
        .iter()
        .map(|bench| {
            let source = bench.source(scale);
            let program = minic::compile(&source)
                .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", bench.name));
            let run_one = |kind: SanitizerKind| {
                run_program(
                    &program,
                    "bench_main",
                    &[scale.n()],
                    &RunConfig::for_sanitizer(kind),
                )
            };
            let reports: Vec<RunReport> = if parallelism.is_parallel() {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = sanitizers
                        .iter()
                        .map(|&kind| scope.spawn(move || run_one(kind)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("backend sweep thread panicked"))
                        .collect()
                })
            } else {
                sanitizers.iter().map(|&kind| run_one(kind)).collect()
            };
            SpecRow {
                name: bench.name.to_string(),
                cpp: bench.cpp,
                paper_kilo_sloc: bench.paper_kilo_sloc,
                paper_type_checks_b: bench.paper_type_checks_b,
                paper_bounds_checks_b: bench.paper_bounds_checks_b,
                paper_issues: bench.paper_issues,
                source_lines: program.source_lines,
                reports,
            }
        })
        .collect();
    SpecExperiment {
        scale,
        rows,
        sanitizers: sanitizers.to_vec(),
    }
}

/// Results of the Firefox-like browser benchmark experiment (Figure 10).
#[derive(Clone, Debug, Serialize)]
pub struct FirefoxExperiment {
    /// The scale the workload was run at.
    pub scale: Scale,
    /// Per browser-benchmark: (name, uninstrumented report, EffectiveSan
    /// full report).
    pub benchmarks: Vec<(String, RunReport, RunReport)>,
    /// Paper-reported overall overhead (422%).
    pub paper_overall_overhead_pct: f64,
}

impl FirefoxExperiment {
    /// Relative performance (overhead %) per benchmark, Figure 10's bars.
    pub fn overheads_pct(&self) -> Vec<(String, f64)> {
        self.benchmarks
            .iter()
            .map(|(name, base, full)| (name.clone(), full.overhead_pct(base)))
            .collect()
    }

    /// Mean overhead across the browser benchmarks.
    pub fn mean_overhead_pct(&self) -> f64 {
        let overheads: Vec<f64> = self.overheads_pct().into_iter().map(|(_, o)| o).collect();
        geometric_mean_overhead(&overheads)
    }

    /// Distinct issues found across all benchmark runs (the §6.3 findings).
    pub fn total_issues(&self) -> u64 {
        self.benchmarks
            .iter()
            .map(|(_, _, full)| full.errors.distinct_issues)
            .sum()
    }
}

/// Run the Firefox-like workload's browser benchmarks, each driver executed
/// in its own thread (each VM owns an isolated simulated address space).
pub fn firefox_experiment(scale: Scale, parallel: bool) -> FirefoxExperiment {
    let workload = FirefoxWorkload::default();
    let source = workload.source(scale);
    let program = minic::compile(&source).expect("firefox workload compiles");

    let run_pair = |bench: &str| {
        let entry = FirefoxWorkload::entry(bench);
        let base = run_program(
            &program,
            &entry,
            &[scale.n()],
            &RunConfig::for_sanitizer(SanitizerKind::None),
        );
        let full = run_program(
            &program,
            &entry,
            &[scale.n()],
            &RunConfig::for_sanitizer(SanitizerKind::EffectiveFull),
        );
        (bench.to_string(), base, full)
    };

    let benchmarks = if parallel {
        std::thread::scope(|scope| {
            let handles: Vec<_> = BROWSER_BENCHMARKS
                .iter()
                .map(|bench| scope.spawn(move || run_pair(bench)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("browser benchmark thread panicked"))
                .collect()
        })
    } else {
        BROWSER_BENCHMARKS.iter().map(|b| run_pair(b)).collect()
    };

    FirefoxExperiment {
        scale,
        benchmarks,
        paper_overall_overhead_pct: workload.paper_overall_overhead_pct,
    }
}

/// §6.2 tool comparison: overhead of every sanitizer on the same workload
/// subset, plus total checks performed.
#[derive(Clone, Debug, Serialize)]
pub struct ToolComparison {
    /// Per-tool: (sanitizer, mean overhead %, total dynamic checks).
    pub tools: Vec<(SanitizerKind, f64, u64)>,
}

/// Run the tool comparison over the given benchmark names, for the default
/// backend set (`SAN_BACKENDS` when set, every registered backend
/// otherwise), fanning the (benchmark × backend) matrix out across threads.
pub fn tool_comparison(names: &[&str], scale: Scale) -> ToolComparison {
    tool_comparison_with(names, scale, &default_backends(), Parallelism::Parallel)
}

/// The given sanitizers, deduplicated, with the uninstrumented baseline
/// prepended as the overhead reference — the canonical run list for
/// overhead experiments (used by [`tool_comparison_with`] and the bench
/// binaries' backend-name CLIs).
pub fn sanitizers_with_baseline(sanitizers: &[SanitizerKind]) -> Vec<SanitizerKind> {
    let mut kinds = vec![SanitizerKind::None];
    for &kind in sanitizers {
        if kind != SanitizerKind::None && !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    kinds
}

/// Run the tool comparison restricted to the given backends (e.g. names
/// parsed from a bench binary's command line).  The uninstrumented
/// baseline is always run as the overhead reference but never listed as a
/// tool.
pub fn tool_comparison_with(
    names: &[&str],
    scale: Scale,
    sanitizers: &[SanitizerKind],
    parallelism: Parallelism,
) -> ToolComparison {
    let kinds = sanitizers_with_baseline(sanitizers);
    let experiment = spec_experiment(Some(names), scale, &kinds, parallelism);
    let tools = kinds
        .into_iter()
        .skip(1)
        .map(|kind| {
            (
                kind,
                experiment.mean_overhead_pct(kind),
                experiment.total_checks(kind),
            )
        })
        .collect();
    ToolComparison { tools }
}

/// Aggregate the distinct issues found per benchmark and per error class —
/// the data behind the issue-taxonomy discussion of §6.1.
pub fn issue_breakdown(
    experiment: &SpecExperiment,
    kind: SanitizerKind,
) -> BTreeMap<String, Vec<(String, u64)>> {
    let mut out = BTreeMap::new();
    for row in &experiment.rows {
        if let Some(report) = row.report(kind) {
            let mut kinds: Vec<(String, u64)> = report
                .errors
                .issues_by_kind
                .iter()
                .map(|(k, v)| (k.name().to_string(), *v))
                .collect();
            kinds.sort();
            out.insert(row.name.clone(), kinds);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_spec_subset_reproduces_key_claims() {
        let experiment = spec_experiment(
            Some(&["mcf", "h264ref", "xalancbmk"]),
            Scale::Test,
            &[
                SanitizerKind::None,
                SanitizerKind::EffectiveFull,
                SanitizerKind::EffectiveBounds,
                SanitizerKind::EffectiveType,
            ],
            Parallelism::Parallel,
        );
        assert_eq!(experiment.rows.len(), 3);

        // Clean benchmark: no issues.  Buggy benchmarks: issues found.
        let mcf = &experiment.rows[0];
        assert_eq!(
            mcf.report(SanitizerKind::EffectiveFull)
                .unwrap()
                .errors
                .distinct_issues,
            0
        );
        let h264 = &experiment.rows[1];
        assert!(
            h264.report(SanitizerKind::EffectiveFull)
                .unwrap()
                .errors
                .bounds_issues()
                >= 2
        );
        let xalanc = &experiment.rows[2];
        assert!(
            xalanc
                .report(SanitizerKind::EffectiveFull)
                .unwrap()
                .errors
                .type_issues()
                >= 2
        );

        // Overheads ordered: full >= bounds >= type >= 0 on average.
        let full = experiment.mean_overhead_pct(SanitizerKind::EffectiveFull);
        let bounds = experiment.mean_overhead_pct(SanitizerKind::EffectiveBounds);
        let ty = experiment.mean_overhead_pct(SanitizerKind::EffectiveType);
        assert!(full > bounds, "full={full:.0}% bounds={bounds:.0}%");
        assert!(bounds > ty, "bounds={bounds:.0}% type={ty:.0}%");
        assert!(ty >= 0.0);

        // Memory overhead of full instrumentation is modest (Figure 9).
        let mem = experiment.mean_memory_overhead_pct(SanitizerKind::EffectiveFull);
        assert!((0.0..150.0).contains(&mem), "memory overhead {mem:.0}%");
    }

    #[test]
    fn firefox_experiment_runs_in_parallel() {
        let experiment = firefox_experiment(Scale::Test, true);
        assert_eq!(experiment.benchmarks.len(), BROWSER_BENCHMARKS.len());
        // The browser workload finds the §6.3-style issues.
        assert!(experiment.total_issues() >= 2);
        // And EffectiveSan costs more than the uninstrumented baseline.
        assert!(experiment.mean_overhead_pct() > 0.0);
    }

    #[test]
    fn issue_breakdown_groups_by_benchmark() {
        let experiment = spec_experiment(
            Some(&["soplex"]),
            Scale::Test,
            &[SanitizerKind::None, SanitizerKind::EffectiveFull],
            Parallelism::Sequential,
        );
        let breakdown = issue_breakdown(&experiment, SanitizerKind::EffectiveFull);
        let soplex = breakdown.get("soplex").unwrap();
        assert!(soplex
            .iter()
            .any(|(k, n)| k == "subobject-bounds-overflow" && *n >= 1));
    }

    #[test]
    #[should_panic(expected = "unknown SPEC-like benchmark `mcff`")]
    fn misspelled_benchmark_names_panic_instead_of_vanishing() {
        spec_experiment(
            Some(&["mcff"]),
            Scale::Test,
            &[SanitizerKind::None],
            Parallelism::Sequential,
        );
    }

    #[test]
    fn parse_backend_list_accepts_separators_and_aliases() {
        let kinds = parse_backend_list("EffectiveSan, asan Memcheck\tmpx").unwrap();
        assert_eq!(
            kinds,
            vec![
                SanitizerKind::EffectiveFull,
                SanitizerKind::AddressSanitizer,
                SanitizerKind::Memcheck,
                SanitizerKind::Mpx,
            ]
        );
        assert_eq!(parse_backend_list("").unwrap(), vec![]);
        assert_eq!(parse_backend_list(" ,, ").unwrap(), vec![]);
        let err = parse_backend_list("asan,notatool").unwrap_err();
        assert!(err.to_string().contains("notatool"));
    }

    #[test]
    fn parse_backend_list_rejects_duplicates_even_across_aliases() {
        let err = parse_backend_list("EffectiveSan,asan,AddressSanitizer").unwrap_err();
        assert_eq!(
            err,
            BackendListError::Duplicate {
                name: "AddressSanitizer".to_string(),
                kind: SanitizerKind::AddressSanitizer,
            }
        );
        let rendered = err.to_string();
        assert!(rendered.contains("duplicate backend `AddressSanitizer`"));
        assert!(rendered.contains("once per sweep"));
    }

    #[test]
    fn parallelism_parses_named_forms_and_rejects_typos() {
        assert_eq!("parallel".parse::<Parallelism>(), Ok(Parallelism::Parallel));
        assert_eq!("ON".parse::<Parallelism>(), Ok(Parallelism::Parallel));
        assert_eq!(
            "sequential".parse::<Parallelism>(),
            Ok(Parallelism::Sequential)
        );
        assert_eq!(" off ".parse::<Parallelism>(), Ok(Parallelism::Sequential));
        let err = "sequental".parse::<Parallelism>().unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("sequental"));
        assert!(rendered.contains("`parallel`"));
        assert!(rendered.contains("`sequential`"));
    }

    #[test]
    fn default_backends_honours_the_environment() {
        // Computed from the same environment read, so this holds both in a
        // plain run (ALL) and in the CI job that sets SAN_BACKENDS.
        let expected = match std::env::var("SAN_BACKENDS") {
            Ok(list) if !parse_backend_list(&list).unwrap().is_empty() => {
                parse_backend_list(&list).unwrap()
            }
            _ => SanitizerKind::ALL.to_vec(),
        };
        assert_eq!(default_backends(), expected);
        assert!(!default_backends().is_empty());
    }

    #[test]
    fn parallelism_defaults_to_parallel() {
        assert_eq!(Parallelism::default(), Parallelism::Parallel);
        assert!(Parallelism::Parallel.is_parallel());
        assert!(!Parallelism::Sequential.is_parallel());
    }
}
