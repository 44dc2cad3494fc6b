//! # san-api
//!
//! The unified sanitizer backend API of the EffectiveSan reproduction.
//!
//! The paper evaluates one tool against a family of others —
//! AddressSanitizer, Valgrind Memcheck, LowFat, SoftBound, Intel MPX,
//! TypeSan, HexType, CETS (Figure 1, §6.2) — all running the same
//! workloads.  This crate makes that comparison architectural rather than
//! ad hoc:
//!
//! * [`Sanitizer`] — the complete instrumentation-hook surface
//!   (allocation lifecycle, type/cast checks, bounds propagation,
//!   per-access checks, reporting) every backend implements;
//! * [`SanStats`] / [`Diagnostic`] — unified counters and structured
//!   findings, comparable across tools;
//! * [`SanitizerKind`] — one kind per backend, listed in
//!   [`SanitizerKind::ALL`], with `FromStr`/`Display` so backends are
//!   selectable by name from CLIs and configs;
//! * [`build()`] — constructs a kind's backend as a `Box<dyn Sanitizer>`;
//! * [`PassConfig`] — the per-tool instrumentation configuration consumed
//!   by the `instrument` crate.
//!
//! The VM dispatches every check instruction through a single
//! `Box<dyn Sanitizer>`; adding a new tool is one `Sanitizer` impl plus a
//! `SanitizerKind` variant, with no interpreter changes.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use effective_runtime::RuntimeConfig;
//! use effective_types::{Type, TypeRegistry};
//! use lowfat::AllocKind;
//! use san_api::SanitizerKind;
//!
//! let types = Arc::new(TypeRegistry::new());
//! let kind: SanitizerKind = "EffectiveSan".parse().unwrap();
//! let mut backend = san_api::build(kind, types, RuntimeConfig::default());
//! assert_eq!(backend.kind(), SanitizerKind::EffectiveFull);
//!
//! let loc: Arc<str> = Arc::from("example");
//! let p = backend.on_alloc(100 * 4, &Type::int(), AllocKind::Heap);
//! // Check-site types are interned once at program-load time; the checks
//! // themselves only carry the resulting ids.
//! let int_id = backend.intern_check_type(&Type::int());
//! let float_id = backend.intern_check_type(&Type::float());
//! let bounds = backend.type_check(p, int_id, &loc);
//! assert_eq!(bounds.width(), 400);
//! assert!(backend.type_check(p, float_id, &loc).is_wide());
//! assert_eq!(backend.finish().len(), 1); // the bad float access
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod backends;
pub mod diagnostic;
pub mod kind;
pub mod registry;

pub use backend::{SanStats, Sanitizer};
pub use backends::{BaselineBackend, EffectiveBackend};
pub use diagnostic::Diagnostic;
pub use kind::{InputCheck, ParseSanitizerKindError, PassConfig, SanitizerKind};
pub use registry::build;
