//! The EffectiveSan runtime system (paper §5, Figure 6).
//!
//! The runtime binds a *dynamic type* to every allocated object by storing a
//! `META` header (allocation type + allocation size) at the object's base,
//! where the low-fat `base()` operation can find it from any interior
//! pointer.  The instrumented program then calls:
//!
//! * [`TypeCheckRuntime::type_check`] — verify a pointer against the static
//!   type declared by the programmer and return the matching sub-object's
//!   bounds (Fig. 6 lines 9–24);
//! * [`TypeCheckRuntime::bounds_check`] — verify a (derived) pointer access
//!   stays inside previously computed bounds (Fig. 3(g));
//! * [`TypeCheckRuntime::bounds_narrow`] — narrow bounds to a field
//!   sub-object (Fig. 3(e));
//! * [`TypeCheckRuntime::type_malloc`] / [`TypeCheckRuntime::type_free`] —
//!   the typed allocation wrappers (Fig. 6 lines 1–7), including binding
//!   deallocated objects to the special `FREE` type;
//! * [`TypeCheckRuntime::bounds_get`] — the reduced-instrumentation entry
//!   point used by the EffectiveSan-bounds variant (§6.2);
//! * [`TypeCheckRuntime::cast_check`] — the cast-site check used by the
//!   EffectiveSan-type variant (§6.2).

use std::sync::Arc;

use effective_types::{
    LayoutMatch, MatchKind, Type, TypeId, TypeInterner, TypeLayout, TypeRegistry,
};
use lowfat::{AllocKind, AllocatorConfig, LowFatAllocator, Memory, Ptr};
use serde::{Deserialize, Serialize};

use crate::bounds::Bounds;
use crate::errors::{ErrorKind, ErrorRecord, ErrorReporter, ReporterConfig};

/// Size of the `META` header stored at the base of every typed allocation
/// (one word for the type, one word for the allocation size) — the paper
/// assumes `sizeof(META) = 16` in Example 5.
pub const META_SIZE: u64 = 16;

/// Runtime configuration.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Error reporting configuration.
    pub reporter: ReporterConfig,
    /// Low-fat allocator configuration (quarantine, …).
    pub allocator: AllocatorConfig,
}

/// Counters for every kind of instrumentation call, reported per benchmark
/// in Figure 7 (`#Type`, `#Bound`) and used for the §6.2 tool comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckStats {
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
    /// Number of `bounds_get` calls (EffectiveSan-bounds variant).
    pub bounds_gets: u64,
    /// Number of `cast_check` calls (EffectiveSan-type variant).
    pub cast_checks: u64,
    /// Typed allocations performed.
    pub typed_allocations: u64,
    /// Typed frees performed.
    pub typed_frees: u64,
}

impl CheckStats {
    /// Total number of checks of any kind (used for overhead modelling).
    pub fn total_checks(&self) -> u64 {
        self.type_checks + self.bounds_checks + self.bounds_gets + self.cast_checks
    }
}

/// A [`TypeId`]-indexed layout slot: distinguishes "never attempted" from
/// "attempted but unlayoutable" so failed builds are not retried per
/// allocation.
#[derive(Clone, Debug, Default)]
enum LayoutEntry {
    /// No build attempted yet (ids interned only as layout keys).
    #[default]
    Unbuilt,
    /// The type cannot be laid out (e.g. `void`, undefined record tags);
    /// allocations of it behave like legacy allocations.
    Unlayoutable,
    /// The built layout table.
    Built(TypeLayout),
}

/// The EffectiveSan runtime: typed allocation, dynamic type checks, bounds
/// checks and error reporting over a simulated low-fat address space.
#[derive(Debug)]
pub struct TypeCheckRuntime {
    registry: Arc<TypeRegistry>,
    /// Dense type ids: `META` headers store [`TypeId::raw`] values, so the
    /// hot path maps header word → layout with one vector index.
    interner: TypeInterner,
    /// Layout tables indexed by [`TypeId`].
    layouts: Vec<LayoutEntry>,
    /// The simulated low-fat allocator.
    pub allocator: LowFatAllocator,
    /// The simulated memory backing the address space.
    pub memory: Memory,
    reporter: ErrorReporter,
    stats: CheckStats,
}

impl TypeCheckRuntime {
    /// Create a runtime over the given type registry.
    pub fn new(registry: Arc<TypeRegistry>, config: RuntimeConfig) -> Self {
        let mut rt = TypeCheckRuntime {
            registry,
            // The interner pre-seeds the well-known ids; id 0 (`void`)
            // doubles as "no type bound" — untyped / foreign allocations
            // read back zeroed META words.
            interner: TypeInterner::new(),
            layouts: Vec::new(),
            allocator: LowFatAllocator::new(config.allocator),
            memory: Memory::new(),
            reporter: ErrorReporter::new(config.reporter),
            stats: CheckStats::default(),
        };
        // Build FREE's (empty) layout eagerly: freed blocks' META words
        // carry `TypeId::FREE` and must always be trusted (matching the
        // old eager FREE registration).  The other well-known ids (void,
        // char, void*) stay interned-only until a program actually
        // allocates them — a garbage META word equal to one of them must
        // classify as legacy, exactly like any other never-registered id.
        rt.build_layout_for(TypeId::FREE);
        rt
    }

    /// The type registry the runtime was built over.
    pub fn registry(&self) -> &Arc<TypeRegistry> {
        &self.registry
    }

    /// Instrumentation-call statistics.
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// The error reporter (read access).
    pub fn reporter(&self) -> &ErrorReporter {
        &self.reporter
    }

    /// Mutable access to the error reporter (used by tests and by baseline
    /// sanitizers sharing the reporting infrastructure).
    pub fn reporter_mut(&mut self) -> &mut ErrorReporter {
        &mut self.reporter
    }

    /// Should execution stop (abort-after-N errors reached)?
    pub fn halted(&self) -> bool {
        self.reporter.halted()
    }

    /// Total number of layout-hash-table entries materialised so far
    /// (type meta data footprint).
    pub fn layout_table_entries(&self) -> usize {
        self.layouts
            .iter()
            .map(|l| match l {
                LayoutEntry::Built(t) => t.entry_count(),
                _ => 0,
            })
            .sum()
    }

    /// The type interner backing `META` ids and layout-table keys.
    pub fn interner(&self) -> &TypeInterner {
        &self.interner
    }

    /// Intern a type, building (and caching) its layout table.
    ///
    /// Returns the dense id used in `META` headers.  Unknown/record types
    /// that cannot be laid out (e.g. undefined tags) are registered without
    /// a layout and behave like legacy allocations.
    pub fn register_type(&mut self, ty: &Type) -> TypeId {
        let id = self.interner.intern(ty);
        self.build_layout_for(id);
        id
    }

    /// Intern a check-site static type without building a layout table —
    /// the id form expected by [`type_check_id`](Self::type_check_id) and
    /// [`cast_check_id`](Self::cast_check_id).  Exactly what the lazy check
    /// path would do on first touch; idempotent after
    /// [`preload_types`](Self::preload_types).
    pub fn intern_type(&mut self, ty: &Type) -> TypeId {
        self.interner.intern(ty)
    }

    /// Resolve an interned id back to its type (for reporting and for
    /// tools that need the structural type).
    pub fn resolve_type(&self, id: TypeId) -> Option<&Type> {
        self.interner.resolve(id)
    }

    /// Pre-intern every type a program references, so the check hot path
    /// never pays a first-touch layout build and the `META` ids are
    /// assigned densely at load time.
    ///
    /// Only `alloc_types` (types that can label memory) get layout tables
    /// built; `check_types` (static types of check sites) are pure
    /// layout-table *keys* and are interned without building a table —
    /// exactly what the lazy path would do, so the metadata footprint
    /// ([`layout_table_entries`](Self::layout_table_entries)) is the same
    /// with or without preloading.
    pub fn preload_types(&mut self, alloc_types: &[Type], check_types: &[Type]) {
        for ty in alloc_types {
            self.register_type(ty);
        }
        for ty in check_types {
            self.interner.intern(ty);
        }
    }

    /// Build (once) the layout table behind `id`.  Types that cannot be
    /// laid out are marked [`LayoutEntry::Unlayoutable`] and behave like
    /// legacy allocations.
    fn build_layout_for(&mut self, id: TypeId) {
        if id.index() >= self.layouts.len() {
            self.layouts.resize(id.index() + 1, LayoutEntry::Unbuilt);
        }
        if !matches!(self.layouts[id.index()], LayoutEntry::Unbuilt) {
            return;
        }
        let Some(element) = self.interner.resolve(id).cloned() else {
            return;
        };
        let layout = match TypeLayout::build(&self.registry, &mut self.interner, &element) {
            Ok(t) => LayoutEntry::Built(t),
            Err(_) => LayoutEntry::Unlayoutable,
        };
        // Building may have interned new key types; keep the vector dense.
        if self.interner.len() > self.layouts.len() {
            self.layouts
                .resize(self.interner.len(), LayoutEntry::Unbuilt);
        }
        self.layouts[id.index()] = layout;
    }

    /// Is `id` a type id that was actually registered as an allocation
    /// type (a [`LayoutEntry::Built`]/[`LayoutEntry::Unlayoutable`] slot)?
    ///
    /// Only such ids are trusted when read back from a `META` header.
    /// Ids that are merely interned (static key types absorbed during
    /// layout builds or checks) never label an allocation, and treating
    /// them as typed would make the garbage-META classification depend on
    /// how much has been interned so far.
    fn is_allocation_type_id(&self, id: TypeId) -> bool {
        id != TypeId::UNTYPED
            && matches!(
                self.layouts.get(id.index()),
                Some(LayoutEntry::Built(_) | LayoutEntry::Unlayoutable)
            )
    }

    /// The dynamic (allocation) type currently bound to the object that
    /// `ptr` points (into), if any.
    pub fn dynamic_type_of(&self, ptr: Ptr) -> Option<&Type> {
        let base = self.allocator.base(ptr)?;
        let id = TypeId::from_raw(self.memory.read_u64(base) as u32);
        if !self.is_allocation_type_id(id) {
            return None;
        }
        self.interner.resolve(id)
    }

    /// The allocation bounds (excluding the META header) of the object that
    /// `ptr` points into, if it is a typed low-fat allocation.
    pub fn allocation_bounds(&self, ptr: Ptr) -> Option<Bounds> {
        let base = self.allocator.base(ptr)?;
        let id = TypeId::from_raw(self.memory.read_u64(base) as u32);
        if !self.is_allocation_type_id(id) {
            return None;
        }
        let size = self.memory.read_u64(base.add(8));
        Some(Bounds::from_base_size(base.add(META_SIZE), size))
    }

    // ------------------------------------------------------------------
    // Typed allocation (Fig. 6 lines 1-7)
    // ------------------------------------------------------------------

    /// `type_malloc(size, T)`: allocate `size` bytes bound to dynamic type
    /// `T[size / sizeof(T)]`.  Also used for typed stack and global
    /// allocations by passing the appropriate [`AllocKind`].
    pub fn type_malloc(&mut self, size: u64, elem: &Type, kind: AllocKind) -> Ptr {
        self.stats.typed_allocations += 1;
        if kind == AllocKind::Legacy {
            // Custom memory allocators / uninstrumented code: no META, the
            // resulting pointer is legacy.
            return self.allocator.alloc(size.max(1), AllocKind::Legacy);
        }
        let id = self.register_type(elem);
        // Saturate: a huge requested size must fall through to the legacy
        // region (or a failing allocation), not overflow the META header
        // addition.
        let base = self
            .allocator
            .alloc(size.max(1).saturating_add(META_SIZE), kind);
        if !self.allocator.is_low_fat(base) {
            // Oversized allocation fell back to the legacy region; it cannot
            // carry meta data retrievable via base().
            return base;
        }
        self.memory.write_u64(base, id.raw() as u64);
        self.memory.write_u64(base.add(8), size);
        base.add(META_SIZE)
    }

    /// `type_free(ptr)`: bind the object to the `FREE` type and release the
    /// memory.  Detects double frees.  Returns `true` when the free was
    /// accepted.
    pub fn type_free(&mut self, ptr: Ptr, location: &Arc<str>) -> bool {
        self.stats.typed_frees += 1;
        if ptr.is_null() {
            return true; // free(NULL) is a no-op
        }
        let Some(base) = self.allocator.base(ptr) else {
            // Legacy pointer: nothing to check, nothing to do.
            return true;
        };
        let id = TypeId::from_raw(self.memory.read_u64(base) as u32);
        // Resolve the dynamic type for diagnostics under the same validity
        // rule as every other META reader: ids that were never registered
        // as allocation types (garbage, or interned-only key types) report
        // as `void` regardless of interning state.
        let dyn_ty = if self.is_allocation_type_id(id) {
            self.resolve_or_void(id)
        } else {
            Type::void()
        };
        if id == TypeId::FREE {
            self.report(
                ErrorKind::DoubleFree,
                &Type::void(),
                &Type::Free,
                0,
                None,
                location,
                "object freed twice".to_string(),
            );
            return false;
        }
        // Bind the FREE type.  The allocator preserves the META words until
        // the block is reallocated (the memory is simply not zeroed).
        self.memory.write_u64(base, TypeId::FREE.raw() as u64);
        if ptr != base.add(META_SIZE) {
            // Freeing an interior pointer is itself undefined behaviour;
            // report it as a type error against the dynamic type.
            let off = ptr.diff(base.add(META_SIZE)).unsigned_abs();
            self.report(
                ErrorKind::TypeConfusion,
                &Type::void(),
                &dyn_ty,
                off,
                None,
                location,
                "free() of an interior pointer".to_string(),
            );
        }
        let _ = self.allocator.free(base);
        true
    }

    /// `type_realloc(ptr, new_size, T)`: grow/shrink a typed allocation,
    /// copying the payload and freeing the old object.
    pub fn type_realloc(
        &mut self,
        ptr: Ptr,
        new_size: u64,
        elem: &Type,
        kind: AllocKind,
        location: &Arc<str>,
    ) -> Ptr {
        if ptr.is_null() {
            return self.type_malloc(new_size, elem, kind);
        }
        let old_bounds = self.allocation_bounds(ptr);
        let new = self.type_malloc(new_size, elem, kind);
        if let Some(old) = old_bounds {
            let copy = old.width().min(new_size);
            self.memory.copy(new, Ptr(old.lo), copy);
        }
        self.type_free(ptr, location);
        new
    }

    // ------------------------------------------------------------------
    // Dynamic type checking (Fig. 6 lines 9-24)
    // ------------------------------------------------------------------

    /// The `type_check(ptr, T[])` function: verify that `ptr` points to (a
    /// sub-object of) an object whose dynamic type is compatible with the
    /// static type `static_ty`, and return the sub-object bounds.
    ///
    /// Legacy pointers and failed checks return [`Bounds::WIDE`].
    pub fn type_check(&mut self, ptr: Ptr, static_ty: &Type, location: &Arc<str>) -> Bounds {
        let id = self.interner.intern(static_ty);
        self.type_check_id(ptr, id, location)
    }

    /// The id-based entry point of [`type_check`](Self::type_check): the
    /// static type was interned once ahead of time (see
    /// [`intern_type`](Self::intern_type)), so the hot path performs no
    /// structural type hashing at all.
    pub fn type_check_id(&mut self, ptr: Ptr, static_id: TypeId, location: &Arc<str>) -> Bounds {
        self.stats.type_checks += 1;
        self.check_against_dynamic_type(ptr, static_id, location, ErrorKind::TypeConfusion)
    }

    /// The cast-site variant of [`type_check`](Self::type_check) used by
    /// EffectiveSan-type: identical logic, but failures are classified as
    /// [`ErrorKind::BadCast`] and counted separately.
    pub fn cast_check(&mut self, ptr: Ptr, static_ty: &Type, location: &Arc<str>) -> Bounds {
        let id = self.interner.intern(static_ty);
        self.cast_check_id(ptr, id, location)
    }

    /// The id-based entry point of [`cast_check`](Self::cast_check).
    pub fn cast_check_id(&mut self, ptr: Ptr, static_id: TypeId, location: &Arc<str>) -> Bounds {
        self.stats.cast_checks += 1;
        self.check_against_dynamic_type(ptr, static_id, location, ErrorKind::BadCast)
    }

    /// The `bounds_get(ptr)` function used by the EffectiveSan-bounds
    /// variant: return the *allocation* bounds derived from the object's
    /// dynamic type / allocation size, without verifying the static type.
    pub fn bounds_get(&mut self, ptr: Ptr) -> Bounds {
        self.stats.bounds_gets += 1;
        match self.allocation_bounds(ptr) {
            Some(b) => b,
            None => Bounds::WIDE,
        }
    }

    /// The `bounds_narrow` operation (Fig. 3(e)): intersect bounds with a
    /// field's address range.
    pub fn bounds_narrow(&mut self, bounds: Bounds, field: Bounds) -> Bounds {
        self.stats.bounds_narrows += 1;
        bounds.narrow(field)
    }

    /// The `bounds_check(ptr, b)` function (Fig. 3(g)): verify an access of
    /// `access_size` bytes at `ptr` lies inside `bounds`.
    ///
    /// `escape` marks checks guarding pointer escapes (stores of pointers,
    /// arguments) rather than dereferences; failures are then classified as
    /// [`ErrorKind::EscapeBoundsOverflow`].
    ///
    /// Returns `true` when the access is in bounds.
    pub fn bounds_check(
        &mut self,
        ptr: Ptr,
        access_size: u64,
        bounds: Bounds,
        location: &Arc<str>,
        escape: bool,
    ) -> bool {
        self.stats.bounds_checks += 1;
        if bounds.contains_access(ptr, access_size) {
            return true;
        }
        self.stats.failed_bounds_checks += 1;
        let (kind, dyn_ty, offset) = self.classify_bounds_failure(ptr, escape);
        self.report(
            kind,
            &Type::void(),
            &dyn_ty,
            offset,
            Some(bounds),
            location,
            format!(
                "access of {access_size} byte(s) at {ptr} outside bounds {:#x}..{:#x}",
                bounds.lo, bounds.hi
            ),
        );
        false
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn check_against_dynamic_type(
        &mut self,
        ptr: Ptr,
        static_id: TypeId,
        location: &Arc<str>,
        failure_kind: ErrorKind,
    ) -> Bounds {
        // Legacy pointers (null, uninstrumented allocations, oversized
        // objects): wide bounds, no check possible.
        let Some(base) = self.allocator.base(ptr) else {
            self.stats.legacy_type_checks += 1;
            return Bounds::WIDE;
        };
        let id = TypeId::from_raw(self.memory.read_u64(base) as u32);
        // One layouts-vec probe yields both the META-validity verdict and
        // the layout table.  Validity is judged against the set of
        // *registered allocation* type ids (a Built/Unlayoutable slot, see
        // [`is_allocation_type_id`](Self::is_allocation_type_id)), not
        // merely interned ids — the interner also absorbs static key types
        // mid-run, so "interned" is time-dependent while "registered" is
        // fixed once the program's types are preloaded.
        let layout = match self.layouts.get(id.index()) {
            Some(LayoutEntry::Built(t)) if id != TypeId::UNTYPED => Some(t),
            Some(LayoutEntry::Unlayoutable) if id != TypeId::UNTYPED => None,
            _ => {
                // Low-fat but never typed (foreign allocation, zeroed
                // META) or garbage META: treat as legacy.
                self.stats.legacy_type_checks += 1;
                return Bounds::WIDE;
            }
        };

        let alloc_size = self.memory.read_u64(base.add(8));
        let obj_base = base.add(META_SIZE);
        let alloc_bounds = Bounds::from_base_size(obj_base, alloc_size);

        // Use-after-free: the dynamic type is FREE.
        if id == TypeId::FREE {
            self.stats.failed_type_checks += 1;
            let static_ty = self.resolve_or_void(static_id);
            self.report(
                ErrorKind::UseAfterFree,
                &static_ty,
                &Type::Free,
                ptr.diff(obj_base).unsigned_abs(),
                Some(alloc_bounds),
                location,
                "pointer to deallocated object".to_string(),
            );
            return Bounds::WIDE;
        }

        // Pointer into the META header itself (an underflow past the object
        // base): no sub-object can match.
        let delta = ptr.diff(obj_base);
        if delta < 0 {
            self.stats.failed_type_checks += 1;
            let alloc_ty = self.resolve_or_void(id);
            let static_ty = self.resolve_or_void(static_id);
            self.report(
                failure_kind,
                &static_ty,
                &alloc_ty,
                delta.unsigned_abs(),
                Some(alloc_bounds),
                location,
                "pointer underflows the allocation base".to_string(),
            );
            return Bounds::WIDE;
        }
        let k = delta as u64;

        let Some(layout) = layout else {
            // Registered but unlayoutable allocation type: behaves like a
            // legacy allocation.
            self.stats.legacy_type_checks += 1;
            return Bounds::WIDE;
        };

        // The O(1) hot path: one probe of the layout hash table (§5), read
        // in place and keyed by the pre-interned static type.
        match layout.lookup_id(&self.interner, static_id, k) {
            Some(m) => Self::match_to_bounds(ptr, m, alloc_bounds),
            None => {
                let k_norm = layout.normalize_offset(k);
                self.stats.failed_type_checks += 1;
                let alloc_ty = self.resolve_or_void(id);
                let static_ty = self.resolve_or_void(static_id);
                let detail =
                    format!("no sub-object of type `{static_ty}` at offset {k} of `{alloc_ty}`");
                self.report(
                    failure_kind,
                    &static_ty,
                    &alloc_ty,
                    k_norm,
                    Some(alloc_bounds),
                    location,
                    detail,
                );
                Bounds::WIDE
            }
        }
    }

    /// Convert a [`LayoutMatch`] into absolute bounds, narrowed to the
    /// allocation (Fig. 6 line 20: the layout table is built for the
    /// incomplete type `T[]`).
    fn match_to_bounds(ptr: Ptr, m: LayoutMatch, alloc_bounds: Bounds) -> Bounds {
        let sub = match m.kind {
            MatchKind::ContainingArray | MatchKind::ByteAccess => alloc_bounds,
            _ if m.bounds.is_unbounded() => alloc_bounds,
            _ => Bounds::new(
                ptr.addr().wrapping_add(m.bounds.lo as u64),
                ptr.addr().wrapping_add(m.bounds.hi as u64),
            ),
        };
        sub.narrow(alloc_bounds)
    }

    fn resolve_or_void(&self, id: TypeId) -> Type {
        self.interner
            .resolve(id)
            .cloned()
            .unwrap_or_else(Type::void)
    }

    fn classify_bounds_failure(&self, ptr: Ptr, escape: bool) -> (ErrorKind, Type, u64) {
        if escape {
            let dyn_ty = self
                .dynamic_type_of(ptr)
                .cloned()
                .unwrap_or_else(Type::void);
            return (ErrorKind::EscapeBoundsOverflow, dyn_ty, 0);
        }
        match self.allocation_bounds(ptr) {
            Some(alloc) if alloc.contains_ptr(ptr) => {
                // Inside the allocation but outside the (narrowed) bounds:
                // a sub-object overflow.
                let dyn_ty = self
                    .dynamic_type_of(ptr)
                    .cloned()
                    .unwrap_or_else(Type::void);
                (
                    ErrorKind::SubObjectBoundsOverflow,
                    dyn_ty,
                    ptr.addr() - alloc.lo,
                )
            }
            _ => {
                let dyn_ty = self
                    .dynamic_type_of(ptr)
                    .cloned()
                    .unwrap_or_else(Type::void);
                (ErrorKind::ObjectBoundsOverflow, dyn_ty, 0)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        kind: ErrorKind,
        static_ty: &Type,
        dynamic_ty: &Type,
        offset: u64,
        bounds: Option<Bounds>,
        location: &Arc<str>,
        detail: String,
    ) {
        self.reporter.report(ErrorRecord {
            kind,
            static_type: static_ty.to_string(),
            dynamic_type: dynamic_ty.to_string(),
            offset,
            bounds,
            location: location.clone(),
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use effective_types::{FieldDef, RecordDef};

    fn loc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    /// Registry with the paper's running example plus the `account` struct
    /// from the introduction.
    fn registry() -> Arc<TypeRegistry> {
        let mut reg = TypeRegistry::new();
        reg.define(RecordDef::struct_(
            "S",
            vec![
                FieldDef::new("a", Type::array(Type::int(), 3)),
                FieldDef::new("s", Type::char_ptr()),
            ],
        ))
        .unwrap();
        reg.define(RecordDef::struct_(
            "T",
            vec![
                FieldDef::new("f", Type::float()),
                FieldDef::new("t", Type::struct_("S")),
            ],
        ))
        .unwrap();
        reg.define(RecordDef::struct_(
            "account",
            vec![
                FieldDef::new("number", Type::array(Type::int(), 8)),
                FieldDef::new("balance", Type::float()),
            ],
        ))
        .unwrap();
        Arc::new(reg)
    }

    fn runtime() -> TypeCheckRuntime {
        TypeCheckRuntime::new(registry(), RuntimeConfig::default())
    }

    #[test]
    fn paper_intro_type_check_example() {
        // int *p = new int[100];
        // type_check(p, int[]) passes; type_check(p, float[]) fails.
        let mut rt = runtime();
        let p = rt.type_malloc(100 * 4, &Type::int(), AllocKind::Heap);
        let b1 = rt.type_check(p, &Type::int(), &loc("intro"));
        assert_eq!(b1, Bounds::from_base_size(p, 400));
        let b2 = rt.type_check(p, &Type::float(), &loc("intro"));
        assert!(b2.is_wide());
        assert_eq!(rt.stats().failed_type_checks, 1);
        assert_eq!(rt.reporter().stats().type_issues(), 1);
    }

    #[test]
    fn example5_interior_pointer_subobject_bounds() {
        // Example 5: p points to a T object; q = p + offsetof(t)+8 (the
        // a[2] position); type_check(q, int[]) returns the bounds of the
        // int[3] sub-object; type_check(q, double[]) fails.
        let mut rt = runtime();
        let size_t = rt.registry().size_of(&Type::struct_("T")).unwrap();
        let p = rt.type_malloc(size_t, &Type::struct_("T"), AllocKind::Heap);
        let toff = rt.registry().offset_of("T", "t").unwrap();
        let q = p.add(toff + 8);
        let b = rt.type_check(q, &Type::int(), &loc("ex5"));
        assert_eq!(b, Bounds::new(p.addr() + toff, p.addr() + toff + 12));
        let b2 = rt.type_check(q, &Type::double(), &loc("ex5"));
        assert!(b2.is_wide());
        assert_eq!(rt.stats().type_checks, 2);
        assert_eq!(rt.stats().failed_type_checks, 1);
    }

    #[test]
    fn subobject_overflow_into_sibling_field_is_detected() {
        // The introduction's motivating example: overflowing
        // account.number must not silently modify account.balance.
        let mut rt = runtime();
        let size = rt.registry().size_of(&Type::struct_("account")).unwrap();
        let p = rt.type_malloc(size, &Type::struct_("account"), AllocKind::Heap);
        // A pointer to number[0] with static type int[]:
        let b = rt.type_check(p, &Type::int(), &loc("account"));
        assert_eq!(b.width(), 32); // int[8], not the whole struct
                                   // number[8] === balance: inside the allocation, outside the
                                   // sub-object bounds.
        let overflow = p.add(32);
        assert!(!rt.bounds_check(overflow, 4, b, &loc("account"), false));
        let stats = rt.reporter().stats();
        assert_eq!(stats.issues_of(ErrorKind::SubObjectBoundsOverflow), 1);
        assert_eq!(stats.issues_of(ErrorKind::ObjectBoundsOverflow), 0);
    }

    #[test]
    fn object_overflow_is_classified_differently() {
        let mut rt = runtime();
        let p = rt.type_malloc(4 * 4, &Type::int(), AllocKind::Heap);
        let b = rt.type_check(p, &Type::int(), &loc("arr"));
        // Element 100 is far outside the 4-element allocation.
        let wild = p.add(400);
        assert!(!rt.bounds_check(wild, 4, b, &loc("arr"), false));
        assert_eq!(
            rt.reporter()
                .stats()
                .issues_of(ErrorKind::ObjectBoundsOverflow),
            1
        );
    }

    #[test]
    fn use_after_free_and_double_free() {
        let mut rt = runtime();
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        assert!(rt.type_free(p, &loc("free1")));
        // Use after free: the dynamic type is now FREE.
        let b = rt.type_check(p, &Type::struct_("S"), &loc("uaf"));
        assert!(b.is_wide());
        assert_eq!(rt.reporter().stats().issues_of(ErrorKind::UseAfterFree), 1);
        // Double free.
        assert!(!rt.type_free(p, &loc("free2")));
        assert_eq!(rt.reporter().stats().issues_of(ErrorKind::DoubleFree), 1);
    }

    #[test]
    fn reuse_after_free_with_different_type_is_detected() {
        let mut rt = runtime();
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        rt.type_free(p, &loc("free"));
        // The allocator reuses the block for a float array.
        let q = rt.type_malloc(24, &Type::float(), AllocKind::Heap);
        assert_eq!(
            p, q,
            "block should be reused for this test to be meaningful"
        );
        // The dangling pointer is now typed float[], not S: error.
        let b = rt.type_check(p, &Type::struct_("S"), &loc("reuse"));
        assert!(b.is_wide());
        assert!(rt.reporter().stats().type_issues() >= 1);
        // Whereas the new owner's accesses are fine.
        let ok = rt.type_check(q, &Type::float(), &loc("owner"));
        assert!(!ok.is_wide());
    }

    #[test]
    fn reuse_after_free_with_same_type_is_missed() {
        // Documented limitation (§2.2/§3): reuse with the *same* type is not
        // detectable by type checking alone.
        let mut rt = runtime();
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        rt.type_free(p, &loc("free"));
        let q = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        assert_eq!(p, q);
        let b = rt.type_check(p, &Type::struct_("S"), &loc("reuse-same"));
        assert!(!b.is_wide());
        assert_eq!(rt.reporter().stats().temporal_issues(), 0);
    }

    #[test]
    fn quarantine_prevents_same_type_reuse() {
        let mut rt = TypeCheckRuntime::new(
            registry(),
            RuntimeConfig {
                allocator: AllocatorConfig {
                    quarantine_blocks: 4,
                },
                ..Default::default()
            },
        );
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        rt.type_free(p, &loc("free"));
        let q = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        assert_ne!(p, q, "quarantine must delay reuse");
        // The dangling pointer still sees FREE: use-after-free detected.
        rt.type_check(p, &Type::struct_("S"), &loc("uaf"));
        assert_eq!(rt.reporter().stats().issues_of(ErrorKind::UseAfterFree), 1);
    }

    #[test]
    fn legacy_pointers_get_wide_bounds() {
        let mut rt = runtime();
        let p = rt.type_malloc(100, &Type::int(), AllocKind::Legacy);
        let b = rt.type_check(p, &Type::float(), &loc("legacy"));
        assert!(b.is_wide());
        assert_eq!(rt.stats().legacy_type_checks, 1);
        assert_eq!(rt.stats().failed_type_checks, 0);
        assert!(rt.bounds_check(p.add(1000), 8, b, &loc("legacy"), false));
        // Null pointers are legacy too.
        let b = rt.type_check(Ptr::NULL, &Type::int(), &loc("null"));
        assert!(b.is_wide());
    }

    #[test]
    fn char_access_resets_bounds_to_containing_object() {
        // §6.1 (xalancbmk): a cast to char* resets the bounds to the
        // containing object rather than reporting a sub-object overflow.
        let mut rt = runtime();
        let size = rt.registry().size_of(&Type::struct_("T")).unwrap();
        let p = rt.type_malloc(size, &Type::struct_("T"), AllocKind::Heap);
        let b = rt.type_check(p.add(5), &Type::char_(), &loc("memcpyish"));
        assert_eq!(b, Bounds::from_base_size(p, size));
        assert_eq!(rt.stats().failed_type_checks, 0);
    }

    #[test]
    fn bounds_get_ignores_types() {
        let mut rt = runtime();
        let p = rt.type_malloc(64, &Type::struct_("S"), AllocKind::Heap);
        let b = rt.bounds_get(p.add(8));
        assert_eq!(b, Bounds::from_base_size(p, 64));
        assert_eq!(rt.stats().bounds_gets, 1);
        assert_eq!(rt.stats().failed_type_checks, 0);
        // Legacy pointer: wide.
        let q = rt.type_malloc(64, &Type::int(), AllocKind::Legacy);
        assert!(rt.bounds_get(q).is_wide());
    }

    #[test]
    fn cast_check_reports_bad_cast() {
        let mut rt = runtime();
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        let b = rt.cast_check(p, &Type::struct_("account"), &loc("cast"));
        assert!(b.is_wide());
        assert_eq!(rt.reporter().stats().issues_of(ErrorKind::BadCast), 1);
        assert_eq!(rt.stats().cast_checks, 1);
    }

    #[test]
    fn realloc_copies_and_frees() {
        let mut rt = runtime();
        let p = rt.type_malloc(16, &Type::int(), AllocKind::Heap);
        rt.memory.write_u32(p, 0x11223344);
        rt.memory.write_u32(p.add(12), 0x55667788);
        let q = rt.type_realloc(p, 64, &Type::int(), AllocKind::Heap, &loc("realloc"));
        assert_ne!(p, q);
        assert_eq!(rt.memory.read_u32(q), 0x11223344);
        assert_eq!(rt.memory.read_u32(q.add(12)), 0x55667788);
        // The old object is now FREE.
        rt.type_check(p, &Type::int(), &loc("stale"));
        assert_eq!(rt.reporter().stats().issues_of(ErrorKind::UseAfterFree), 1);
    }

    #[test]
    fn pointer_underflow_into_meta_header_is_an_error() {
        let mut rt = runtime();
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        let before = p.offset(-4);
        let b = rt.type_check(before, &Type::int(), &loc("underflow"));
        assert!(b.is_wide());
        assert_eq!(rt.stats().failed_type_checks, 1);
    }

    #[test]
    fn escape_bounds_failures_are_classified() {
        let mut rt = runtime();
        let p = rt.type_malloc(16, &Type::int(), AllocKind::Heap);
        let b = rt.type_check(p, &Type::int(), &loc("esc"));
        assert!(!rt.bounds_check(p.add(64), 8, b, &loc("esc"), true));
        assert_eq!(
            rt.reporter()
                .stats()
                .issues_of(ErrorKind::EscapeBoundsOverflow),
            1
        );
    }

    #[test]
    fn stats_count_all_check_kinds() {
        let mut rt = runtime();
        let p = rt.type_malloc(16, &Type::int(), AllocKind::Heap);
        let b = rt.type_check(p, &Type::int(), &loc("s"));
        rt.bounds_check(p, 4, b, &loc("s"), false);
        rt.bounds_narrow(b, Bounds::new(b.lo, b.lo + 4));
        rt.bounds_get(p);
        rt.cast_check(p, &Type::int(), &loc("s"));
        let stats = rt.stats();
        assert_eq!(stats.type_checks, 1);
        assert_eq!(stats.bounds_checks, 1);
        assert_eq!(stats.bounds_narrows, 1);
        assert_eq!(stats.bounds_gets, 1);
        assert_eq!(stats.cast_checks, 1);
        assert_eq!(stats.typed_allocations, 1);
        assert_eq!(stats.total_checks(), 4);
    }

    #[test]
    fn every_failing_check_at_one_site_reaches_the_reporter() {
        let mut rt = runtime();
        let p = rt.type_malloc(4 * 4, &Type::int(), AllocKind::Heap);
        for _ in 0..5 {
            assert!(rt.type_check(p, &Type::float(), &loc("bad")).is_wide());
        }
        assert_eq!(rt.stats().failed_type_checks, 5);
        assert_eq!(rt.reporter().stats().total_events, 5);
    }

    #[test]
    fn a_hot_site_reports_use_after_free_after_the_free() {
        let mut rt = runtime();
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        for _ in 0..10 {
            assert!(!rt.type_check(p, &Type::struct_("S"), &loc("hot")).is_wide());
        }
        rt.type_free(p, &loc("free"));
        let b = rt.type_check(p, &Type::struct_("S"), &loc("stale"));
        assert!(b.is_wide());
        assert_eq!(rt.reporter().stats().issues_of(ErrorKind::UseAfterFree), 1);
    }

    #[test]
    fn a_block_reused_under_a_new_type_checks_against_the_new_binding() {
        let mut rt = runtime();
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        for _ in 0..4 {
            assert!(!rt
                .type_check(p, &Type::struct_("S"), &loc("warm"))
                .is_wide());
        }
        rt.type_free(p, &loc("free"));
        let q = rt.type_malloc(24, &Type::float(), AllocKind::Heap);
        assert_eq!(p, q, "block must be reused for this test to bite");
        // The dangling pointer now reads the float binding and fails.
        let b = rt.type_check(p, &Type::struct_("S"), &loc("dangling"));
        assert!(b.is_wide());
        assert_eq!(rt.stats().failed_type_checks, 1);
        assert!(rt.reporter().stats().type_issues() >= 1);
        // The new owner's checks pass.
        for _ in 0..2 {
            assert!(!rt.type_check(q, &Type::float(), &loc("owner")).is_wide());
        }
        assert_eq!(rt.stats().failed_type_checks, 1);
    }

    #[test]
    fn preload_types_builds_layouts_upfront_without_stat_noise() {
        let mut rt = runtime();
        rt.preload_types(&[Type::struct_("S"), Type::struct_("T"), Type::int()], &[]);
        let entries = rt.layout_table_entries();
        assert!(entries > 0);
        assert_eq!(rt.stats(), CheckStats::default());
        // Re-registering is idempotent.
        rt.preload_types(&[Type::struct_("S")], &[]);
        assert_eq!(rt.layout_table_entries(), entries);
        // Check static types are interned as keys only: no table is built
        // for them, so the metadata footprint does not grow (the lazy path
        // would never build one either).
        rt.preload_types(&[], &[Type::double(), Type::ptr(Type::double())]);
        assert_eq!(rt.layout_table_entries(), entries);
        assert!(rt.interner().get(&Type::double()).is_some());
        // Checks behave identically on preloaded types.
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        assert!(!rt.type_check(p, &Type::struct_("S"), &loc("pre")).is_wide());
    }

    #[test]
    fn garbage_meta_ids_are_legacy_even_when_interned() {
        let mut rt = runtime();
        // A check-only static type: interned (it has an id) but never
        // registered as an allocation type (no layout slot).
        rt.preload_types(&[], &[Type::double()]);
        let key_id = rt.interner().get(&Type::double()).unwrap();
        let p = rt.type_malloc(16, &Type::int(), AllocKind::Heap);
        let base = rt.allocator.base(p).unwrap();
        // A buggy program scribbles the key-only id into the META header:
        // it must classify as legacy (garbage META), not as a typed
        // allocation — and that classification must not depend on how many
        // types happen to have been interned by the time of the check.
        rt.memory.write_u64(base, key_id.raw() as u64);
        assert!(rt.type_check(p, &Type::int(), &loc("garbage")).is_wide());
        assert_eq!(rt.stats().legacy_type_checks, 1);
        assert_eq!(rt.stats().failed_type_checks, 0);
        assert!(rt.dynamic_type_of(p).is_none());
        assert!(rt.allocation_bounds(p).is_none());
        // The well-known CHAR/VOID_PTR ids are pre-interned but likewise
        // untrusted until a char / void* allocation actually registers
        // them — garbage must not read back as a typed char buffer.
        rt.memory.write_u64(base, TypeId::CHAR.raw() as u64);
        assert!(rt
            .type_check(p, &Type::int(), &loc("garbage-char"))
            .is_wide());
        assert_eq!(rt.stats().legacy_type_checks, 2);
        assert!(rt.dynamic_type_of(p).is_none());
        // A real char allocation registers CHAR and is typed as usual.
        let c = rt.type_malloc(8, &Type::char_(), AllocKind::Heap);
        assert_eq!(rt.dynamic_type_of(c), Some(&Type::char_()));
    }

    #[test]
    fn free_of_interior_pointer_is_reported() {
        let mut rt = runtime();
        let p = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Heap);
        rt.type_free(p.add(4), &loc("interior-free"));
        assert!(rt.reporter().stats().type_issues() >= 1);
    }

    #[test]
    fn stack_and_global_allocations_are_typed() {
        let mut rt = runtime();
        let frame = rt.allocator.stack_frame_begin();
        let s = rt.type_malloc(24, &Type::struct_("S"), AllocKind::Stack);
        let g = rt.type_malloc(8 * 24, &Type::struct_("S"), AllocKind::Global);
        assert!(!rt
            .type_check(s, &Type::struct_("S"), &loc("stack"))
            .is_wide());
        assert!(!rt
            .type_check(g.add(24), &Type::struct_("S"), &loc("global"))
            .is_wide());
        assert_eq!(rt.stats().failed_type_checks, 0);
        rt.allocator.stack_frame_end(frame);
    }
}
