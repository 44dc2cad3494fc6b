//! # vm
//!
//! An interpreter for instrumented `minic` programs over the simulated
//! low-fat address space.
//!
//! The VM stands in for native execution of EffectiveSan-instrumented
//! binaries: it executes the typed IR, dispatches the check instructions
//! inserted by the `instrument` crate through a single
//! [`san_api::Sanitizer`] backend (an EffectiveSan variant or a baseline
//! comparison tool built by [`san_api::build`]), and records the event
//! counts (instructions, loads/stores, checks, allocations, peak memory)
//! that the paper's performance figures are built from.  A deterministic
//! [`CostModel`] turns those counts into comparable "time" estimates so
//! relative overheads do not depend on interpreter details.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use instrument::{instrument_program, SanitizerKind};
//! use vm::{Value, Vm, VmConfig};
//!
//! let program = minic::compile(
//!     "int run(int n) {
//!          int *a = (int *)malloc(n * sizeof(int));
//!          int s = 0;
//!          for (int i = 0; i < n; i++) { a[i] = i; s += a[i]; }
//!          free(a);
//!          return s;
//!      }",
//! )
//! .unwrap();
//! let instrumented = instrument_program(&program, SanitizerKind::EffectiveFull);
//! let mut vm = Vm::new(Arc::new(instrumented), VmConfig::default());
//! assert_eq!(vm.run("run", &[Value::Int(10)]).unwrap(), Value::Int(45));
//! assert_eq!(vm.backend().error_stats().distinct_issues, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod interp;
mod profile;
pub mod tier;
pub mod value;

pub use interp::{CostModel, ExecStats, Vm, VmConfig, VmError};
pub use tier::{FastFunction, FastInstr, LoadKind};
pub use value::Value;
