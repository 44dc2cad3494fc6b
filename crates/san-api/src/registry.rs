//! Backend construction.
//!
//! Every sanitizer the reproduction models — the four EffectiveSan
//! variants (full / bounds / type / escapes-off), the uninstrumented
//! baseline, and the eight comparison tools (ASan, Memcheck, LowFat,
//! SoftBound, MPX, TypeSan, HexType, CETS) — is one [`SanitizerKind`] in
//! [`SanitizerKind::ALL`], and [`build`] constructs its backend.
//! Pipelines, bench binaries and workloads select backends by kind (or by
//! name, through `SanitizerKind`'s `FromStr`) instead of hard-wiring
//! runtime types.

use std::sync::Arc;

use effective_runtime::RuntimeConfig;
use effective_types::TypeRegistry;

use crate::backend::Sanitizer;
use crate::backends::{BaselineBackend, EffectiveBackend};
use crate::kind::SanitizerKind;

/// Construct the backend for `kind` over the given type registry.
pub fn build(
    kind: SanitizerKind,
    types: Arc<TypeRegistry>,
    config: RuntimeConfig,
) -> Box<dyn Sanitizer> {
    if kind.baseline_kind().is_some() {
        Box::new(BaselineBackend::new(kind, types, config))
    } else {
        Box::new(EffectiveBackend::new(kind, types, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn types() -> Arc<TypeRegistry> {
        Arc::new(TypeRegistry::new())
    }

    #[test]
    fn every_entry_builds_a_backend_of_its_kind() {
        for kind in SanitizerKind::ALL {
            let backend = build(kind, types(), RuntimeConfig::default());
            assert_eq!(backend.kind(), kind);
            assert!(!backend.halted());
            assert_eq!(backend.stats().total_checks(), 0);
        }
    }
}
