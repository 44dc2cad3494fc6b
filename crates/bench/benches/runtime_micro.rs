//! Micro-benchmarks of the runtime primitives: typed allocation,
//! `type_check` (structural and by pre-interned id), `bounds_check` and the
//! low-fat `base`/`size` operations.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use effective_san::effective_runtime::{RuntimeConfig, TypeCheckRuntime};
use effective_san::effective_types::{FieldDef, RecordDef, Type, TypeRegistry};
use effective_san::lowfat::{AllocKind, LowFatAllocator};

fn registry() -> Arc<TypeRegistry> {
    let mut reg = TypeRegistry::new();
    reg.define(RecordDef::struct_(
        "node",
        vec![
            FieldDef::new("value", Type::int()),
            FieldDef::new("next", Type::ptr(Type::struct_("node"))),
        ],
    ))
    .unwrap();
    Arc::new(reg)
}

fn bench_runtime(c: &mut Criterion) {
    c.bench_function("lowfat_alloc_free", |b| {
        let mut alloc = LowFatAllocator::default();
        b.iter(|| {
            let p = alloc.alloc(64, AllocKind::Heap);
            alloc.free(std::hint::black_box(p)).unwrap();
        })
    });

    c.bench_function("lowfat_base_size", |b| {
        let mut alloc = LowFatAllocator::default();
        let p = alloc.alloc(64, AllocKind::Heap);
        b.iter(|| {
            (
                alloc.base(std::hint::black_box(p.add(17))),
                alloc.size(p.add(17)),
            )
        })
    });

    let loc: Arc<str> = Arc::from("bench");

    c.bench_function("type_malloc", |b| {
        let mut rt = TypeCheckRuntime::new(registry(), RuntimeConfig::default());
        b.iter(|| {
            let p = rt.type_malloc(16, &Type::struct_("node"), AllocKind::Heap);
            rt.type_free(std::hint::black_box(p), &loc);
        })
    });

    c.bench_function("type_check_hit", |b| {
        let mut rt = TypeCheckRuntime::new(registry(), RuntimeConfig::default());
        let p = rt.type_malloc(16, &Type::struct_("node"), AllocKind::Heap);
        b.iter(|| rt.type_check(std::hint::black_box(p), &Type::struct_("node"), &loc))
    });

    // The probe alone: the static type is interned once, as the VM does
    // at load time (`type_check_hit` above interns it on every call).
    c.bench_function("type_check_id_hit", |b| {
        let mut rt = TypeCheckRuntime::new(registry(), RuntimeConfig::default());
        let p = rt.type_malloc(16, &Type::struct_("node"), AllocKind::Heap);
        let node = rt.intern_type(&Type::struct_("node"));
        b.iter(|| rt.type_check_id(std::hint::black_box(p), node, &loc))
    });

    c.bench_function("bounds_check_hit", |b| {
        let mut rt = TypeCheckRuntime::new(registry(), RuntimeConfig::default());
        let p = rt.type_malloc(16, &Type::struct_("node"), AllocKind::Heap);
        let bounds = rt.type_check(p, &Type::struct_("node"), &loc);
        b.iter(|| rt.bounds_check(std::hint::black_box(p), 4, bounds, &loc, false))
    });
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
