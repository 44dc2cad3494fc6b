//! Property tests for the backend-uniform bounds contract: for **every**
//! backend in `SanitizerKind::ALL` — all 13 of them, including the
//! Memcheck, MPX and EffectiveSan-escapes-off additions — `bounds_narrow`
//! never widens bounds, and bounds narrowed to in-allocation field ranges
//! stay inside the allocation (paper Fig. 3(e): narrowing is interval
//! intersection).  The name round-trip (`Display` → `FromStr`) is
//! property-tested over the same set, so by-name backend selection covers
//! every kind.

use std::sync::Arc;

use effective_runtime::{Bounds, RuntimeConfig};
use effective_types::{Type, TypeRegistry};
use lowfat::AllocKind;
use proptest::prelude::*;
use san_api::SanitizerKind;

fn types() -> Arc<TypeRegistry> {
    Arc::new(TypeRegistry::new())
}

/// The properties below iterate `SanitizerKind::ALL`; this pins down that
/// the iteration really includes the three backends added on top of the
/// original ten, so their bounds behaviour cannot silently drop out of the
/// property coverage.
#[test]
fn property_coverage_includes_the_three_new_backends() {
    let kinds = SanitizerKind::ALL;
    assert_eq!(kinds.len(), 13);
    for kind in [
        SanitizerKind::Memcheck,
        SanitizerKind::Mpx,
        SanitizerKind::EffectiveEscapesOff,
    ] {
        assert!(kinds.contains(&kind), "{kind} missing from ALL");
    }
}

/// Is `inner` contained in `outer`, treating empty ranges as contained
/// everywhere (a fully narrowed-away range permits no access)?
fn within(inner: Bounds, outer: Bounds) -> bool {
    inner.width() == 0 || (inner.lo >= outer.lo && inner.hi <= outer.hi)
}

proptest! {
    /// `bounds_narrow(b, field)` never yields wider bounds than `b`,
    /// for every backend and arbitrary field rectangles
    /// (including ones far outside the allocation).
    #[test]
    fn narrowing_never_widens(
        size in 8u64..4096,
        field_off in 0i64..8192,
        field_width in 0u64..8192,
    ) {
        for kind in SanitizerKind::ALL {
            let mut backend = san_api::build(kind, types(), RuntimeConfig::default());
            let p = backend.on_alloc(size, &Type::int(), AllocKind::Heap);
            let bounds = backend.bounds_get(p);
            let field = Bounds::new(
                p.addr().wrapping_add_signed(field_off - 4096),
                p.addr().wrapping_add_signed(field_off - 4096).saturating_add(field_width),
            );
            let narrowed = backend.bounds_narrow(bounds, field);
            prop_assert!(
                narrowed.width() <= bounds.width(),
                "{}: narrow widened {bounds:?} to {narrowed:?}",
                kind.name()
            );
            prop_assert!(
                within(narrowed, bounds),
                "{}: narrowed {narrowed:?} escapes {bounds:?}",
                kind.name()
            );
        }
    }

    /// Narrowing allocation bounds to an in-allocation field keeps the
    /// result inside the allocation, and re-narrowing is monotone: a
    /// nested (sub-)field never re-widens the range.
    #[test]
    fn narrowed_bounds_stay_inside_the_allocation(
        size in 64u64..2048,
        off_frac in 0u64..100,
        width_frac in 1u64..100,
        sub_frac in 0u64..100,
    ) {
        for kind in SanitizerKind::ALL {
            let mut backend = san_api::build(kind, types(), RuntimeConfig::default());
            let p = backend.on_alloc(size, &Type::int(), AllocKind::Heap);
            let alloc = Bounds::from_base_size(p, size);
            let bounds = backend.bounds_get(p);

            // A field range fully inside the allocation.
            let off = size * off_frac / 100;
            let width = ((size - off) * width_frac / 100).max(1);
            let field = Bounds::new(p.addr() + off, p.addr() + off + width);
            let narrowed = backend.bounds_narrow(bounds, field);
            prop_assert!(
                within(narrowed, alloc),
                "{}: narrowed {narrowed:?} leaves allocation {alloc:?}",
                kind.name()
            );
            prop_assert!(within(narrowed, bounds), "{}: widened", kind.name());

            // Narrow again to a nested sub-range: still monotone.
            let sub_off = off + (width * sub_frac / 100);
            let sub = Bounds::new(p.addr() + sub_off, p.addr() + sub_off + 1);
            let renarrowed = backend.bounds_narrow(narrowed, sub);
            prop_assert!(
                within(renarrowed, narrowed),
                "{}: re-narrowing widened {narrowed:?} to {renarrowed:?}",
                kind.name()
            );
            prop_assert!(within(renarrowed, alloc), "{}: escaped allocation", kind.name());
        }
    }

    /// Every backend's display name parses back to the same kind
    /// regardless of casing — the name contract that
    /// `SAN_BACKENDS` and the bench CLIs rely on, covering all 13 kinds
    /// (including Memcheck, MPX and the escapes-off ablation).
    #[test]
    fn registry_names_round_trip(idx in 0usize..13) {
        let kind = SanitizerKind::ALL[idx];
        let rendered = kind.to_string();
        prop_assert_eq!(rendered.parse::<SanitizerKind>().unwrap(), kind);
        prop_assert_eq!(
            rendered.to_uppercase().parse::<SanitizerKind>().unwrap(),
            kind
        );
        prop_assert_eq!(
            rendered.to_lowercase().parse::<SanitizerKind>().unwrap(),
            kind
        );
    }

    /// The bounds a backend hands out for a live tracked allocation never
    /// extend past the allocation itself (wide bounds — "untracked" —
    /// excepted), so every later narrow stays inside it too.
    #[test]
    fn bounds_get_is_allocation_bounded(size in 1u64..4096) {
        for kind in SanitizerKind::ALL {
            let mut backend = san_api::build(kind, types(), RuntimeConfig::default());
            let p = backend.on_alloc(size, &Type::int(), AllocKind::Heap);
            let bounds = backend.bounds_get(p);
            if !bounds.is_wide() {
                let alloc = Bounds::from_base_size(p, size);
                prop_assert!(
                    within(bounds, alloc),
                    "{}: bounds_get {bounds:?} exceeds allocation {alloc:?}",
                    kind.name()
                );
            }
        }
    }
}
