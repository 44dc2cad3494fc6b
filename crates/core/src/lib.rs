//! # effective-san
//!
//! A from-scratch Rust reproduction of **EffectiveSan** — *"EffectiveSan:
//! Type and Memory Error Detection using Dynamically Typed C/C++"*
//! (Duck & Yap, PLDI 2018).
//!
//! EffectiveSan turns C/C++ into a dynamically typed language: every
//! allocation is bound to its *effective type*, every pointer use is
//! checked against the static type the programmer declared, and
//! (sub-)object bounds are derived from the dynamic type on demand.  One
//! mechanism — dynamic type checking over low-fat pointers — therefore
//! detects type confusion, (sub-)object bounds overflows, and many
//! (re)use-after-free errors.
//!
//! This crate is the façade over the full reproduction:
//!
//! * [`compile`] / [`instrument()`] / [`run_program`] / [`run_source`] — the
//!   compile → instrument → execute pipeline over the `minic` substrate;
//! * [`RunReport`] — check counts, issues found, cost and memory figures
//!   for one run;
//! * [`capability_matrix`] — Figure 1 (what each sanitizer detects);
//! * [`spec_experiment`] / [`firefox_experiment`] / [`tool_comparison`] —
//!   the Figure 7–10 and §6.2 experiments over the synthetic workloads;
//! * re-exports of the underlying crates (`effective-types`, `lowfat`,
//!   `effective-runtime`, `san-api`, `minic`, `instrument`, `vm`,
//!   `baselines`, `workloads`) for direct use — in particular the
//!   [`san_api::Sanitizer`] backend trait and [`san_api::build`], through
//!   which every run constructs its sanitizer by kind.
//!
//! ## Quick start
//!
//! ```
//! use effective_san::{run_source, RunConfig, SanitizerKind};
//!
//! let report = run_source(
//!     "struct account { int number[8]; float balance; };
//!      int run(int idx) {
//!          struct account *a = (struct account *)malloc(sizeof(struct account));
//!          a->number[idx] = 7;   // idx == 8 overflows into `balance`
//!          free(a);
//!          return 0;
//!      }",
//!     "run",
//!     &[8],
//!     &RunConfig::for_sanitizer(SanitizerKind::EffectiveFull),
//! )
//! .unwrap();
//! assert_eq!(report.errors.bounds_issues(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capability;
pub mod experiments;
pub mod pipeline;

pub use capability::{capability_matrix, CapabilityRow, Coverage, ErrorColumn};
pub use experiments::{
    backends_from_env, default_backends, firefox_experiment, issue_breakdown, parse_backend_list,
    sanitizers_with_baseline, spec_experiment, tool_comparison, tool_comparison_with,
    BackendListError, FirefoxExperiment, Parallelism, ParseParallelismError, SpecExperiment,
    SpecRow, ToolComparison,
};
pub use pipeline::{
    compile, geometric_mean_overhead, instrument, run_matrix, run_program, run_program_profiled,
    run_source, RunConfig, RunReport,
};

// Re-export the component crates and the most frequently used types.
pub use baselines;
pub use effective_runtime;
pub use effective_runtime::{ErrorKind, ReportMode};
pub use effective_types;
pub use lowfat;
pub use minic;
pub use obs;
pub use san_api;
pub use san_api::{Diagnostic, SanStats, Sanitizer, SanitizerKind};
pub use vm;
pub use vm::CostModel;
pub use workloads;
pub use workloads::Scale;
