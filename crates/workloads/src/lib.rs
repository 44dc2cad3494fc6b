//! # workloads
//!
//! Synthetic workloads reproducing the paper's evaluation inputs:
//!
//! * [`spec::SpecBenchmark`] — 19 Mini-C/C++ programs standing in for the
//!   SPEC CPU2006 benchmarks of Figure 7, each with the issue classes the
//!   paper reports seeded from the [`bugs`] catalogue;
//! * [`firefox::FirefoxWorkload`] — a browser-engine-like workload with the
//!   seven benchmark drivers of Figure 10 and the §6.3 findings;
//! * [`kernels`] — the reusable source fragments the workloads are built
//!   from;
//! * [`bugs`] — the seeded-bug catalogue mapping every §6.1/§6.3 finding to
//!   a runnable snippet and its expected error class.
//!
//! SPEC2006 and Firefox sources are proprietary and enormous, so these
//! synthetic stand-ins take their place.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bugs;
pub mod firefox;
pub mod kernels;
pub mod spec;

pub use bugs::{bug, catalogue, SeededBug};
pub use firefox::{FirefoxWorkload, BROWSER_BENCHMARKS};
pub use spec::{ParseScaleError, Scale, SpecBenchmark};
