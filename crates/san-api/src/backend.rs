//! The [`Sanitizer`] trait: the complete instrumentation-hook surface every
//! backend implements, plus the unified [`SanStats`] counters.

use std::sync::Arc;

use effective_runtime::{Bounds, CheckStats, ErrorStats};
use effective_types::{Type, TypeId};
use lowfat::{AllocKind, FrameMark, Memory, Ptr};
use serde::{Deserialize, Serialize};

use crate::diagnostic::Diagnostic;
use crate::kind::SanitizerKind;

/// Unified per-backend check counters.
///
/// Merges the EffectiveSan runtime's `CheckStats` and the baseline tools'
/// `BaselineStats` into one shape, so cost models and report tables treat
/// every backend identically (the Figure 7 `#Type`/`#Bound` columns and the
/// §6.2 dynamic-check comparison).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SanStats {
    /// Number of `type_check` calls.
    pub type_checks: u64,
    /// `type_check` calls that saw a legacy (non-low-fat or untyped)
    /// pointer and returned wide bounds.
    pub legacy_type_checks: u64,
    /// `type_check` calls that failed (type error reported).
    pub failed_type_checks: u64,
    /// Number of `bounds_check` calls.
    pub bounds_checks: u64,
    /// `bounds_check` calls that failed.
    pub failed_bounds_checks: u64,
    /// Number of `bounds_narrow` operations.
    pub bounds_narrows: u64,
    /// Number of `bounds_get` calls.
    pub bounds_gets: u64,
    /// Bound-table loads on bounds-register-file misses (the Intel-MPX
    /// model's `BNDLDX` spills; zero for software tools).
    pub bounds_table_loads: u64,
    /// Number of `cast_check` calls.
    pub cast_checks: u64,
    /// Per-access (shadow-memory / temporal) checks performed.
    pub access_checks: u64,
    /// Allocations that bound type meta data (typed allocations).
    pub typed_allocations: u64,
    /// Typed frees performed.
    pub typed_frees: u64,
    /// Allocations registered with the backend.
    pub allocations: u64,
    /// Frees registered with the backend.
    pub frees: u64,
    /// Always 0: no backend memoises type checks (each one is a single
    /// layout-table probe).  The field stays because the wire `checks`
    /// line and the benchmark harness still carry it.
    pub check_cache_hits: u64,
    /// Always 0, like [`check_cache_hits`](Self::check_cache_hits).
    pub check_cache_misses: u64,
}

impl SanStats {
    /// Total number of checks of any kind (used for overhead modelling and
    /// the §6.2 dynamic-check column).
    pub fn total_checks(&self) -> u64 {
        self.type_checks
            + self.bounds_checks
            + self.bounds_gets
            + self.cast_checks
            + self.access_checks
    }

    /// Add the baseline tool's *check* counters on top (used by backends
    /// that pair a baseline runtime with the typed-allocator substrate).
    /// Allocation/free counts are not merged: the substrate already counts
    /// the same events, and double counting would skew the cost model.
    pub fn merge_baseline(&mut self, b: &baselines::BaselineStats) {
        self.access_checks += b.access_checks;
        self.bounds_gets += b.bounds_gets;
        self.bounds_checks += b.bounds_checks;
        self.bounds_narrows += b.bounds_narrows;
        self.bounds_table_loads += b.bounds_table_loads;
        self.cast_checks += b.cast_checks;
    }
}

impl From<CheckStats> for SanStats {
    fn from(c: CheckStats) -> Self {
        SanStats {
            type_checks: c.type_checks,
            legacy_type_checks: c.legacy_type_checks,
            failed_type_checks: c.failed_type_checks,
            bounds_checks: c.bounds_checks,
            failed_bounds_checks: c.failed_bounds_checks,
            bounds_narrows: c.bounds_narrows,
            bounds_gets: c.bounds_gets,
            bounds_table_loads: 0,
            cast_checks: c.cast_checks,
            access_checks: 0,
            typed_allocations: c.typed_allocations,
            typed_frees: c.typed_frees,
            allocations: c.typed_allocations,
            frees: c.typed_frees,
            check_cache_hits: 0,
            check_cache_misses: 0,
        }
    }
}

/// The unified sanitizer backend interface.
///
/// A `Sanitizer` is everything the VM needs to execute an instrumented
/// program: the simulated memory substrate, the allocation lifecycle hooks,
/// the check functions the instrumentation calls into, and end-of-run
/// reporting.  One trait covers the three EffectiveSan variants **and**
/// every comparison tool of the paper (Figure 1, §6.2), so the interpreter
/// dispatches through a single `Box<dyn Sanitizer>` with no per-tool
/// branching.
///
/// # Hook contracts
///
/// *Allocation lifecycle* — [`on_alloc`](Sanitizer::on_alloc) /
/// [`on_free`](Sanitizer::on_free) / [`on_realloc`](Sanitizer::on_realloc)
/// model the paper's typed-allocator wrappers `effective_malloc` /
/// `effective_free` (§5, Fig. 6 lines 1–7).  The backend owns the
/// allocator, so `on_alloc` *performs* the allocation and returns the
/// object pointer; tools that bind type meta data (the `META` header) do it
/// here, and temporal tools record identifiers/quarantine state.
///
/// *Bounds hooks* — [`bounds_get`](Sanitizer::bounds_get) is the reduced
/// instrumentation entry point (allocation bounds from pointer meta data,
/// §6.2; also the LowFat/SoftBound model), [`bounds_narrow`](Sanitizer::bounds_narrow)
/// intersects bounds with a field sub-object (Fig. 3(e)), and
/// [`bounds_check`](Sanitizer::bounds_check) verifies an access or pointer
/// escape against propagated `BOUNDS` values (Fig. 3(g)).
///
/// *Type hooks* — [`type_check`](Sanitizer::type_check) is the paper's
/// central `type_check(ptr, T)` (§4, Fig. 6 lines 9–24): verify the static
/// type against the object's dynamic type and return the matching
/// sub-object bounds.  [`cast_check`](Sanitizer::cast_check) is the
/// cast-site variant used by EffectiveSan-type and the TypeSan/HexType
/// class-hierarchy checkers (§6.2); it uniformly returns [`Bounds`] (wide
/// for tools that only produce a pass/fail verdict).
///
/// *Per-access hook* — [`access_check`](Sanitizer::access_check) models
/// shadow-memory tools with no propagated bounds (AddressSanitizer
/// red-zones, CETS identifier checks; §2.1).
///
/// *Reporting* — [`stats`](Sanitizer::stats) returns the unified dynamic
/// check counters, [`halted`](Sanitizer::halted) reflects the
/// abort-after-N-errors reporting mode (§6), and
/// [`finish`](Sanitizer::finish) renders every distinct issue as a
/// structured [`Diagnostic`] (§6.1 bucketing).
///
/// # No false positives
///
/// Every hook must be *conservative*: pointers the backend knows nothing
/// about (legacy allocations, foreign memory) yield wide bounds and pass
/// all checks, mirroring the paper's compatibility-first design (§5).
pub trait Sanitizer: std::fmt::Debug {
    /// Which registered backend this is.
    fn kind(&self) -> SanitizerKind;

    // ------------------------------------------------------------------
    // Memory substrate
    // ------------------------------------------------------------------

    /// The simulated memory backing the address space (read access).
    fn memory(&self) -> &Memory;

    /// The simulated memory backing the address space (write access).
    fn memory_mut(&mut self) -> &mut Memory;

    /// Open a stack frame in the simulated low-fat stack region; objects
    /// allocated with [`AllocKind::Stack`] belong to the innermost frame.
    fn stack_frame_begin(&mut self) -> FrameMark;

    /// Close a stack frame, releasing every stack object allocated in it.
    fn stack_frame_end(&mut self, mark: FrameMark);

    // ------------------------------------------------------------------
    // Allocation lifecycle (Fig. 6 lines 1-7)
    // ------------------------------------------------------------------

    /// Pre-intern every type a program references before execution starts,
    /// so hot-path checks never pay first-touch meta-data construction
    /// (layout-table builds, id assignment).  `alloc_types` are allocation
    /// element types (globals, `Alloca`, allocation builtins) and may get
    /// layout tables built; `check_types` are the static types of check
    /// sites and must only be interned as layout-table keys, exactly as
    /// the lazy path would.  Purely a warm-up: dynamic check behaviour and
    /// statistics must be identical with or without it.  (The type
    /// meta-data footprint may still cover allocation types on paths a
    /// given run never executes.)  Tools that keep no type meta data
    /// ignore it (the default).
    fn preload_types(&mut self, _alloc_types: &[Type], _check_types: &[Type]) {}

    /// Allocate `size` bytes with element type `elem`, binding whatever
    /// meta data this tool keeps, and return the object pointer.
    /// [`AllocKind::Legacy`] allocations are invisible to every tool
    /// (custom memory allocators, §6.1).
    fn on_alloc(&mut self, size: u64, elem: &Type, kind: AllocKind) -> Ptr;

    /// Release the object at `ptr` (binding the `FREE` type, quarantining,
    /// or invalidating identifiers, per tool).  Detects double frees.
    fn on_free(&mut self, ptr: Ptr, location: &Arc<str>);

    /// Grow/shrink the allocation at `ptr` to `new_size` bytes, copying the
    /// payload; returns the new object pointer.
    fn on_realloc(&mut self, ptr: Ptr, new_size: u64, elem: &Type, location: &Arc<str>) -> Ptr;

    // ------------------------------------------------------------------
    // Checks (dispatched from the instrumented program)
    // ------------------------------------------------------------------

    /// Intern a check-site static type into this tool's id space, returning
    /// the [`TypeId`] that [`type_check`](Self::type_check) and
    /// [`cast_check`](Self::cast_check) expect.  Called once per check site
    /// at program-load time (never on the hot path); tools that keep no
    /// type meta data may return [`TypeId::UNTYPED`].
    fn intern_check_type(&mut self, ty: &Type) -> TypeId;

    /// Verify `ptr` against the interned static type `static_ty` and return
    /// the matching sub-object's bounds; wide bounds on legacy pointers or
    /// failure (§4, Fig. 6 lines 9–24).  The id comes from
    /// [`intern_check_type`](Self::intern_check_type), so the hot path
    /// never hashes a structural [`Type`].  Tools without dynamic type
    /// information return wide bounds and never report.
    fn type_check(&mut self, ptr: Ptr, static_ty: TypeId, location: &Arc<str>) -> Bounds;

    /// The cast-site check (§6.2): like [`type_check`](Self::type_check)
    /// but failures classify as bad casts.  Always returns [`Bounds`];
    /// class-hierarchy checkers that only produce a verdict return wide
    /// bounds.
    fn cast_check(&mut self, ptr: Ptr, static_ty: TypeId, location: &Arc<str>) -> Bounds;

    /// The allocation bounds of the object `ptr` points into, from this
    /// tool's meta data; wide bounds when untracked (§6.2, LowFat §2.3).
    fn bounds_get(&mut self, ptr: Ptr) -> Bounds;

    /// Narrow `bounds` to the field sub-object `field` (Fig. 3(e));
    /// never widens.
    fn bounds_narrow(&mut self, bounds: Bounds, field: Bounds) -> Bounds;

    /// Verify an access of `size` bytes at `ptr` against propagated
    /// `bounds` (Fig. 3(g)); `escape` marks pointer-escape checks.  Returns
    /// `true` when in bounds.
    fn bounds_check(
        &mut self,
        ptr: Ptr,
        size: u64,
        bounds: Bounds,
        location: &Arc<str>,
        escape: bool,
    ) -> bool;

    /// Per-access shadow/temporal check with no propagated bounds
    /// (AddressSanitizer / CETS, §2.1).  Returns `true` when the access is
    /// allowed.
    fn access_check(&mut self, ptr: Ptr, size: u64, write: bool, location: &Arc<str>) -> bool;

    // ------------------------------------------------------------------
    // Reporting (§6, §6.1)
    // ------------------------------------------------------------------

    /// Unified dynamic-check counters.
    fn stats(&self) -> SanStats;

    /// Has the abort-after-N-errors limit been reached (§6 reporting
    /// modes)?
    fn halted(&self) -> bool;

    /// Aggregated error statistics of this tool's reporter (distinct
    /// issues bucketed by type and offset, §6.1).
    fn error_stats(&self) -> ErrorStats;

    /// Render every distinct issue found so far as a structured
    /// [`Diagnostic`] (empty in counting mode).  Called at the end of a
    /// run; idempotent.
    fn finish(&mut self) -> Vec<Diagnostic>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanstats_total_counts_every_check_family() {
        let stats = SanStats {
            type_checks: 1,
            bounds_checks: 2,
            bounds_gets: 3,
            cast_checks: 4,
            access_checks: 5,
            bounds_narrows: 100, // narrows are not "checks"
            ..Default::default()
        };
        assert_eq!(stats.total_checks(), 15);
    }

    #[test]
    fn from_checkstats_maps_fields() {
        let c = CheckStats {
            type_checks: 7,
            legacy_type_checks: 2,
            failed_type_checks: 1,
            bounds_checks: 9,
            typed_allocations: 4,
            typed_frees: 3,
            ..Default::default()
        };
        let s = SanStats::from(c);
        assert_eq!(s.type_checks, 7);
        assert_eq!(s.legacy_type_checks, 2);
        assert_eq!(s.failed_type_checks, 1);
        assert_eq!(s.bounds_checks, 9);
        assert_eq!(s.typed_allocations, 4);
        assert_eq!(s.allocations, 4);
        assert_eq!(s.frees, 3);
        assert_eq!(s.access_checks, 0);
    }

    #[test]
    fn merge_baseline_is_additive() {
        let mut s = SanStats {
            typed_allocations: 2,
            allocations: 2,
            ..Default::default()
        };
        s.merge_baseline(&baselines::BaselineStats {
            access_checks: 10,
            bounds_gets: 1,
            bounds_checks: 2,
            bounds_narrows: 3,
            bounds_table_loads: 5,
            cast_checks: 4,
            allocations: 2,
            frees: 1,
        });
        assert_eq!(s.access_checks, 10);
        assert_eq!(s.cast_checks, 4);
        assert_eq!(s.bounds_table_loads, 5);
        // Allocation events are counted once, by the substrate.
        assert_eq!(s.allocations, 2);
        assert_eq!(s.frees, 0);
        assert_eq!(s.total_checks(), 17);
    }
}
