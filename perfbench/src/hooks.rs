//! A counting [`Sanitizer`] wrapper for the traced run.
//!
//! Hook time is attributed by difference of runs, never by timing each
//! check: the wrapper runs once delegating every hook to the real backend
//! and once answering every check with "pass" (wide bounds, `true`) after
//! doing no work.  The memory substrate and the allocation hooks always
//! delegate, because the program needs real memory either way; their time
//! is measured directly.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use effective_san::effective_runtime::{Bounds, ErrorStats};
use effective_san::effective_types::{Type, TypeId};
use effective_san::lowfat::{AllocKind, FrameMark, Memory, Ptr};
use effective_san::san_api::{Diagnostic, SanStats, Sanitizer, SanitizerKind};

/// Hook calls seen by one run, published when the run calls `finish`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HookCounts {
    pub type_checks: u64,
    pub cast_checks: u64,
    pub bounds_gets: u64,
    pub bounds_narrows: u64,
    pub bounds_checks: u64,
    pub access_checks: u64,
    pub allocs: u64,
    pub frees: u64,
    /// `bounds_check`/`access_check` calls that answered "fail".
    pub failed_checks: u64,
    /// Time spent inside `on_alloc`/`on_free`/`on_realloc`.
    pub alloc_free_ns: u64,
}

/// Whether the checks reach the real backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckHooks {
    /// Delegate every check to the wrapped backend.
    Real,
    /// Answer every check with "pass" and do no work.
    Null,
}

/// The wrapper itself; pass it to `Vm::with_backend`.
#[derive(Debug)]
pub struct Counting {
    inner: Box<dyn Sanitizer>,
    hooks: CheckHooks,
    counts: HookCounts,
    sink: Rc<Cell<HookCounts>>,
}

impl Counting {
    /// Wrap `inner`; the counts land in `sink` when `finish` is called.
    pub fn new(inner: Box<dyn Sanitizer>, hooks: CheckHooks, sink: Rc<Cell<HookCounts>>) -> Self {
        Counting {
            inner,
            hooks,
            counts: HookCounts::default(),
            sink,
        }
    }

    fn real(&self) -> bool {
        self.hooks == CheckHooks::Real
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn Sanitizer) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.counts.alloc_free_ns += start.elapsed().as_nanos() as u64;
        out
    }
}

impl Sanitizer for Counting {
    fn kind(&self) -> SanitizerKind {
        self.inner.kind()
    }

    fn memory(&self) -> &Memory {
        self.inner.memory()
    }

    fn memory_mut(&mut self) -> &mut Memory {
        self.inner.memory_mut()
    }

    fn stack_frame_begin(&mut self) -> FrameMark {
        self.inner.stack_frame_begin()
    }

    fn stack_frame_end(&mut self, mark: FrameMark) {
        self.inner.stack_frame_end(mark)
    }

    fn preload_types(&mut self, alloc_types: &[Type], check_types: &[Type]) {
        self.inner.preload_types(alloc_types, check_types)
    }

    fn on_alloc(&mut self, size: u64, elem: &Type, kind: AllocKind) -> Ptr {
        self.counts.allocs += 1;
        self.timed(|s| s.on_alloc(size, elem, kind))
    }

    fn on_free(&mut self, ptr: Ptr, location: &Arc<str>) {
        self.counts.frees += 1;
        self.timed(|s| s.on_free(ptr, location))
    }

    fn on_realloc(&mut self, ptr: Ptr, new_size: u64, elem: &Type, location: &Arc<str>) -> Ptr {
        self.counts.allocs += 1;
        self.counts.frees += 1;
        self.timed(|s| s.on_realloc(ptr, new_size, elem, location))
    }

    fn intern_check_type(&mut self, ty: &Type) -> TypeId {
        self.inner.intern_check_type(ty)
    }

    fn type_check(&mut self, ptr: Ptr, static_ty: TypeId, location: &Arc<str>) -> Bounds {
        self.counts.type_checks += 1;
        if self.real() {
            self.inner.type_check(ptr, static_ty, location)
        } else {
            Bounds::WIDE
        }
    }

    fn cast_check(&mut self, ptr: Ptr, static_ty: TypeId, location: &Arc<str>) -> Bounds {
        self.counts.cast_checks += 1;
        if self.real() {
            self.inner.cast_check(ptr, static_ty, location)
        } else {
            Bounds::WIDE
        }
    }

    fn bounds_get(&mut self, ptr: Ptr) -> Bounds {
        self.counts.bounds_gets += 1;
        if self.real() {
            self.inner.bounds_get(ptr)
        } else {
            Bounds::WIDE
        }
    }

    fn bounds_narrow(&mut self, bounds: Bounds, field: Bounds) -> Bounds {
        self.counts.bounds_narrows += 1;
        if self.real() {
            self.inner.bounds_narrow(bounds, field)
        } else {
            Bounds::WIDE
        }
    }

    fn bounds_check(
        &mut self,
        ptr: Ptr,
        size: u64,
        bounds: Bounds,
        location: &Arc<str>,
        escape: bool,
    ) -> bool {
        self.counts.bounds_checks += 1;
        let ok = !self.real() || self.inner.bounds_check(ptr, size, bounds, location, escape);
        self.counts.failed_checks += u64::from(!ok);
        ok
    }

    fn access_check(&mut self, ptr: Ptr, size: u64, write: bool, location: &Arc<str>) -> bool {
        self.counts.access_checks += 1;
        let ok = !self.real() || self.inner.access_check(ptr, size, write, location);
        self.counts.failed_checks += u64::from(!ok);
        ok
    }

    fn stats(&self) -> SanStats {
        self.inner.stats()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn error_stats(&self) -> ErrorStats {
        self.inner.error_stats()
    }

    fn finish(&mut self) -> Vec<Diagnostic> {
        self.sink.set(self.counts);
        self.inner.finish()
    }
}
