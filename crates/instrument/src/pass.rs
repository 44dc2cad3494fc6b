//! The generic dynamic-check instrumentation pass.
//!
//! This is the paper's Figure 3 schema implemented as an IR→IR rewrite,
//! parameterised by [`PassConfig`] so that the two reduced EffectiveSan
//! variants (§6.2) and the baseline sanitizers share one pass:
//!
//! * **(a)–(d)** input pointers (parameters, call returns, loads of
//!   pointers, casts) get a `type_check` (or `bounds_get`) that yields the
//!   sub-object bounds for the pointer's *static* type;
//! * **(e)** field accesses narrow bounds (`bounds_narrow`);
//! * **(f)** pointer arithmetic propagates bounds unchanged;
//! * **(g)** every dereference and pointer escape is bounds-checked.
//!
//! Only *used* pointers attract instrumentation ("it is the responsibility
//! of the eventual user of the pointer to check the type").  Bounds live
//! in frame slots of their own, allocated only where a check writes one;
//! a slot no check has written yet reads as wide bounds, so the pass emits
//! no initialisation for it.  No check is removed after emission: every
//! check instruction the pass emits reaches the sanitizer.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use effective_types::{Type, TypeInterner, TypeRegistry};
use minic::ir::{Builtin, CastKind, Const, Function, Instr, Program, Slot};

use crate::config::{InputCheck, PassConfig, SanitizerKind};

/// Instrument a whole program for the given sanitizer.
///
/// The input program is left untouched; a rewritten copy is returned.
/// [`SanitizerKind::None`] returns a plain clone (the uninstrumented
/// baseline).
pub fn instrument_program(program: &Program, kind: SanitizerKind) -> Program {
    instrument_program_with(program, kind.config())
}

/// Instrument a whole program with an explicit configuration.
pub fn instrument_program_with(program: &Program, config: PassConfig) -> Program {
    let mut out = program.clone();
    if !config.is_enabled() {
        return out;
    }
    let registry = out.registry.clone();
    // One interner per program: the emitted check instructions carry
    // `TypeId`s resolved here, once, so the ids must be deterministic —
    // visit functions in name order, not `HashMap` order.
    let mut interner = TypeInterner::new();
    let mut names: Vec<String> = out.functions.keys().cloned().collect();
    names.sort_unstable();
    for name in &names {
        let func = out.functions.get_mut(name).expect("function exists");
        instrument_function(
            std::sync::Arc::make_mut(func),
            &registry,
            &config,
            &mut interner,
        );
    }
    out
}

/// Instrument a single function in place.  `interner` assigns the
/// program-wide [`effective_types::TypeId`]s carried by the emitted check
/// instructions.
pub fn instrument_function(
    func: &mut Function,
    registry: &TypeRegistry,
    config: &PassConfig,
    interner: &mut TypeInterner,
) {
    let used = used_pointer_slots(func);
    let const_lens = builtin_const_lens(func);
    let old_body = std::mem::take(&mut func.body);

    let mut cx = Cx {
        func,
        registry,
        config,
        interner,
        used,
        const_lens,
        bounds_of: HashMap::new(),
        out: Vec::new(),
        label: 0,
    };

    // Map from old instruction index to new index (within `out`, before the
    // preamble is prepended).
    let mut index_map = vec![0usize; old_body.len() + 1];

    for (i, instr) in old_body.iter().enumerate() {
        index_map[i] = cx.out.len();
        cx.rewrite(instr, i);
    }
    index_map[old_body.len()] = cx.out.len();

    // Preamble: the parameter checks of rule (a).
    let mut preamble = Vec::new();
    let params: Vec<(Slot, Type)> = cx
        .func
        .params
        .iter()
        .map(|p| (p.slot, p.ty.clone()))
        .collect();
    for (slot, ty) in params {
        if !ty.is_pointer() || !cx.used.contains(&slot) {
            continue;
        }
        let Some(pointee) = ty.pointee().cloned() else {
            continue;
        };
        if let Some(check) = cx.input_check_instr(slot, &pointee, "param") {
            preamble.push(check);
        }
    }

    let offset = preamble.len();
    let mut body = preamble;
    body.extend(cx.out);

    // Patch jump targets.
    for instr in body.iter_mut() {
        match instr {
            Instr::Jump { target } => *target = index_map[*target] + offset,
            Instr::Branch {
                then_target,
                else_target,
                ..
            } => {
                *then_target = index_map[*then_target] + offset;
                *else_target = index_map[*else_target] + offset;
            }
            _ => {}
        }
    }

    func.body = body;
}

struct Cx<'a> {
    func: &'a mut Function,
    registry: &'a TypeRegistry,
    config: &'a PassConfig,
    interner: &'a mut TypeInterner,
    used: HashSet<Slot>,
    /// Resolved constant byte lengths of mem-builtin calls, by old index.
    const_lens: HashMap<usize, u64>,
    bounds_of: HashMap<Slot, Slot>,
    out: Vec<Instr>,
    label: usize,
}

impl<'a> Cx<'a> {
    fn loc(&mut self, what: &str) -> Arc<str> {
        self.label += 1;
        Arc::from(format!("{}#{}:{}", self.func.name, self.label, what))
    }

    fn bounds_slot(&mut self, ptr: Slot) -> Slot {
        if let Some(&b) = self.bounds_of.get(&ptr) {
            return b;
        }
        let b = self.func.new_slot();
        self.bounds_of.insert(ptr, b);
        b
    }

    fn size_of(&self, ty: &Type) -> u64 {
        self.registry.size_of(ty).unwrap_or(1).max(1)
    }

    fn tracks_bounds(&self) -> bool {
        self.config.bounds_check_accesses
            || self.config.bounds_check_escapes
            || self.config.narrow_fields
    }

    /// The rule (a)–(d) input-pointer check for `ptr` against static
    /// element type `pointee`, or `None` when the configuration does not
    /// check inputs (then no bounds slot is allocated either).
    fn input_check_instr(&mut self, ptr: Slot, pointee: &Type, what: &str) -> Option<Instr> {
        match self.config.input_check {
            InputCheck::None => None,
            InputCheck::TypeCheck => Some(Instr::TypeCheck {
                dst: self.bounds_slot(ptr),
                ptr,
                ty_id: self.interner.intern(pointee),
                ty: pointee.clone(),
                loc: self.loc(what),
            }),
            InputCheck::BoundsGet => Some(Instr::BoundsGet {
                dst: self.bounds_slot(ptr),
                ptr,
            }),
        }
    }

    fn emit_input_check(&mut self, ptr: Slot, pointee: &Type, what: &str) {
        if let Some(i) = self.input_check_instr(ptr, pointee, what) {
            self.out.push(i);
        }
    }

    fn emit_access_guard(&mut self, ptr: Slot, size: u64, write: bool, what: &str) {
        if self.config.bounds_check_accesses {
            let bounds = self.bounds_slot(ptr);
            let loc = self.loc(what);
            self.out.push(Instr::BoundsCheck {
                ptr,
                bounds,
                size,
                escape: false,
                loc,
            });
        }
        if self.config.access_check {
            let loc = self.loc(what);
            self.out.push(Instr::AccessCheck {
                ptr,
                size,
                write,
                loc,
            });
        }
    }

    fn emit_escape_guard(&mut self, ptr_value: Slot, pointee_size: u64, what: &str) {
        if !self.config.bounds_check_escapes {
            return;
        }
        let bounds = self.bounds_slot(ptr_value);
        let loc = self.loc(what);
        self.out.push(Instr::BoundsCheck {
            ptr: ptr_value,
            bounds,
            size: pointee_size,
            escape: true,
            loc,
        });
    }

    fn propagate_bounds(&mut self, dst: Slot, src: Slot) {
        if !self.tracks_bounds() {
            return;
        }
        let bsrc = self.bounds_slot(src);
        let bdst = self.bounds_slot(dst);
        self.out.push(Instr::Copy {
            dst: bdst,
            src: bsrc,
        });
    }

    fn rewrite(&mut self, instr: &Instr, index: usize) {
        match instr {
            // ----- rule (g): dereferences -----
            Instr::Load { dst, ptr, ty } => {
                let size = self.size_of(ty);
                self.emit_access_guard(*ptr, size, false, "load");
                self.out.push(instr.clone());
                // rule (c): pointers read from memory are inputs.
                if ty.is_pointer() && self.used.contains(dst) {
                    if let Some(pointee) = ty.pointee().cloned() {
                        self.emit_input_check(*dst, &pointee, "loaded-ptr");
                    }
                }
            }
            Instr::Store { ptr, src, ty } => {
                let size = self.size_of(ty);
                // Escaping pointer values are bounds-checked (rule (g)).
                if ty.is_pointer() {
                    let psize = ty.pointee().map(|p| self.size_of(p)).unwrap_or(1);
                    self.emit_escape_guard(*src, psize, "ptr-escape-store");
                }
                self.emit_access_guard(*ptr, size, true, "store");
                self.out.push(instr.clone());
            }

            // ----- rules (e)/(f): derived pointers -----
            Instr::FieldAddr {
                dst,
                base,
                field_size,
                ..
            } => {
                self.out.push(instr.clone());
                if self.config.narrow_fields {
                    let bbase = self.bounds_slot(*base);
                    let bdst = self.bounds_slot(*dst);
                    self.out.push(Instr::BoundsNarrow {
                        dst: bdst,
                        bounds: bbase,
                        field_base: *dst,
                        size: *field_size,
                    });
                } else {
                    self.propagate_bounds(*dst, *base);
                }
            }
            Instr::PtrAdd { dst, base, .. } => {
                self.out.push(instr.clone());
                self.propagate_bounds(*dst, *base);
            }
            Instr::Copy { dst, src } => {
                self.out.push(instr.clone());
                self.propagate_bounds(*dst, *src);
            }

            // ----- rule (d): casts -----
            Instr::Cast {
                dst,
                src,
                kind,
                from_ty,
                to_ty,
                explicit,
            } => {
                self.out.push(instr.clone());
                let pointer_result =
                    to_ty.is_pointer() && matches!(kind, CastKind::Bit | CastKind::IntToPtr);
                if !pointer_result {
                    return;
                }
                let pointee = to_ty.pointee().cloned().unwrap_or_else(Type::void);
                // Cast-site checking (EffectiveSan-type / TypeSan / HexType):
                // applied to explicit casts regardless of use.
                if self.config.cast_check_explicit && *explicit {
                    let class_ok = !self.config.cast_check_classes_only || pointee.is_record();
                    if class_ok && !pointee.is_void() {
                        let b = self.bounds_slot(*dst);
                        let loc = self.loc("cast");
                        self.out.push(Instr::CastCheck {
                            dst: b,
                            ptr: *dst,
                            ty_id: self.interner.intern(&pointee),
                            ty: pointee,
                            loc,
                        });
                    }
                    return;
                }
                // Full/bounds variants treat cast results as input pointers
                // when used.  A cast that cannot change the checked type
                // (same pointee) just forwards the bounds — one of the §6
                // "checks that can never fail" optimizations.
                if self.config.input_check != InputCheck::None && self.used.contains(dst) {
                    if from_ty.pointee() == to_ty.pointee() && *kind == CastKind::Bit {
                        self.propagate_bounds(*dst, *src);
                    } else if pointee.is_void() {
                        // void* results carry no checkable type; keep the
                        // original bounds.
                        self.propagate_bounds(*dst, *src);
                    } else {
                        self.emit_input_check(*dst, &pointee, "cast");
                    }
                } else {
                    self.propagate_bounds(*dst, *src);
                }
            }

            // ----- rule (b): call returns; escapes of pointer arguments -----
            Instr::Call {
                dst,
                args,
                arg_tys,
                ret_ty,
                ..
            } => {
                if self.config.bounds_check_escapes {
                    let escapes: Vec<(Slot, u64)> = args
                        .iter()
                        .zip(arg_tys)
                        .filter(|(_, t)| t.is_pointer())
                        .map(|(a, t)| (*a, t.pointee().map(|p| self.size_of(p)).unwrap_or(1)))
                        .collect();
                    for (a, sz) in escapes {
                        self.emit_escape_guard(a, sz, "ptr-escape-arg");
                    }
                }
                self.out.push(instr.clone());
                if let Some(d) = dst {
                    if ret_ty.is_pointer() && self.used.contains(d) {
                        if let Some(pointee) = ret_ty.pointee().cloned() {
                            self.emit_input_check(*d, &pointee, "call-ret");
                        }
                    }
                }
            }
            Instr::CallBuiltin {
                dst,
                builtin,
                args,
                ret_ty,
                ..
            } => {
                // memcpy/memset-style builtins dereference their pointer
                // arguments inside the runtime; bounds-check them here like
                // any other use.  Only the actually-pointer-typed arguments
                // are guarded (memset's second argument is the fill byte),
                // and when the length operand is a compile-time constant the
                // guard covers the full `[p, p+n)` range instead of one byte.
                let derefs = matches!(
                    builtin,
                    Builtin::Memcpy | Builtin::Memmove | Builtin::Memset | Builtin::Strlen
                );
                if derefs && (self.config.bounds_check_escapes || self.config.access_check) {
                    let size = self.const_lens.get(&index).copied().unwrap_or(1).max(1);
                    let ptr_args: Vec<Slot> =
                        args.iter().take(builtin.pointer_args()).copied().collect();
                    for (i, a) in ptr_args.into_iter().enumerate() {
                        self.emit_escape_guard(a, size, "builtin-arg");
                        if self.config.access_check {
                            // Interceptor-style range check: ASan, Memcheck
                            // and CETS hook the libc mem functions
                            // themselves, so they see the whole range.
                            let write = i == 0 && !matches!(builtin, Builtin::Strlen);
                            let loc = self.loc("builtin-arg");
                            self.out.push(Instr::AccessCheck {
                                ptr: a,
                                size,
                                write,
                                loc,
                            });
                        }
                    }
                }
                self.out.push(instr.clone());
                if let Some(d) = dst {
                    if ret_ty.is_pointer() && self.used.contains(d) {
                        if let Some(pointee) = ret_ty.pointee().cloned() {
                            self.emit_input_check(*d, &pointee, "alloc-ret");
                        }
                    }
                }
            }

            // ----- fresh objects: allocas and globals -----
            Instr::Alloca { dst, ty, .. } => {
                self.out.push(instr.clone());
                if self.used.contains(dst) {
                    self.emit_input_check(*dst, &ty.clone(), "alloca");
                }
            }
            Instr::GlobalAddr { dst, .. } => {
                self.out.push(instr.clone());
                // The global's element type is not tracked on the
                // instruction, so type-checking configurations emit a
                // `bounds_get` here too: it is always valid and yields the
                // global's allocation bounds.
                if self.used.contains(dst) && self.config.input_check != InputCheck::None {
                    let d = self.bounds_slot(*dst);
                    self.out.push(Instr::BoundsGet { dst: d, ptr: *dst });
                }
            }

            // ----- returns of pointers escape -----
            Instr::Return { value } => {
                if let (Some(v), true) = (value, self.config.bounds_check_escapes) {
                    if self.func.ret.is_pointer() && self.bounds_of.contains_key(v) {
                        let sz = self
                            .func
                            .ret
                            .pointee()
                            .map(|p| self.size_of(p))
                            .unwrap_or(1);
                        self.emit_escape_guard(*v, sz, "ptr-escape-return");
                    }
                }
                self.out.push(instr.clone());
            }

            // Everything else is copied verbatim.
            other => self.out.push(other.clone()),
        }
    }
}

/// Resolve the byte length of each `memcpy`/`memmove`/`memset` call whose
/// length operand is a compile-time constant reaching the call on every
/// path, keyed by the call's body index.
///
/// The backward scan is deliberately conservative: it gives up at the
/// first redefinition that is not a plain constant, at terminators, and as
/// soon as a jump target sits between the candidate definition and the
/// call (another path could reach the call with a different length).
fn builtin_const_lens(func: &Function) -> HashMap<usize, u64> {
    let mut jump_target = vec![false; func.body.len() + 1];
    for instr in &func.body {
        match instr {
            Instr::Jump { target } => jump_target[*target] = true,
            Instr::Branch {
                then_target,
                else_target,
                ..
            } => {
                jump_target[*then_target] = true;
                jump_target[*else_target] = true;
            }
            _ => {}
        }
    }
    let mut lens = HashMap::new();
    for (i, instr) in func.body.iter().enumerate() {
        let Instr::CallBuiltin { builtin, args, .. } = instr else {
            continue;
        };
        if !matches!(
            builtin,
            Builtin::Memcpy | Builtin::Memmove | Builtin::Memset
        ) {
            continue;
        }
        let Some(&len_slot) = args.get(2) else {
            continue;
        };
        for j in (0..i).rev() {
            if jump_target[j + 1] {
                break;
            }
            let def = &func.body[j];
            if def.is_terminator() {
                break;
            }
            if def.dst() == Some(len_slot) {
                if let Instr::Const {
                    value: Const::Int(n),
                    ..
                } = def
                {
                    lens.insert(i, (*n).max(0) as u64);
                }
                break;
            }
        }
    }
    lens
}

/// Compute the set of slots holding pointers that are *used* — dereferenced,
/// used as the base of a derived pointer that is used, or escaping (stored,
/// passed, returned).  Only these attract rule (a)–(d) checks.
fn used_pointer_slots(func: &Function) -> HashSet<Slot> {
    let mut used: HashSet<Slot> = HashSet::new();
    // Direct uses.
    for instr in &func.body {
        match instr {
            Instr::Load { ptr, .. } => {
                used.insert(*ptr);
            }
            Instr::Store { ptr, src, ty } => {
                used.insert(*ptr);
                if ty.is_pointer() {
                    used.insert(*src);
                }
            }
            Instr::Call { args, arg_tys, .. } => {
                for (a, t) in args.iter().zip(arg_tys) {
                    if t.is_pointer() {
                        used.insert(*a);
                    }
                }
            }
            Instr::CallBuiltin { builtin, args, .. } => {
                // Only the pointer-typed arguments count as pointer uses:
                // memset's fill byte and realloc's size are plain integers.
                for a in args.iter().take(builtin.pointer_args()) {
                    used.insert(*a);
                }
            }
            // NOTE: returning a pointer is *not* counted as a use on its
            // own — "a function that merely casts and returns a pointer
            // will not attract instrumentation" (§4); the caller checks the
            // returned pointer when it uses it.
            _ => {}
        }
    }
    // Propagate backwards through derivations until a fixpoint: if a derived
    // pointer is used, its base is used too.
    loop {
        let mut changed = false;
        for instr in &func.body {
            let (dst, srcs): (Slot, Vec<Slot>) = match instr {
                Instr::PtrAdd { dst, base, .. } => (*dst, vec![*base]),
                Instr::FieldAddr { dst, base, .. } => (*dst, vec![*base]),
                Instr::Cast { dst, src, .. } => (*dst, vec![*src]),
                Instr::Copy { dst, src } => (*dst, vec![*src]),
                _ => continue,
            };
            if used.contains(&dst) {
                for s in srcs {
                    changed |= used.insert(s);
                }
            }
        }
        if !changed {
            break;
        }
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(func: &Function, pred: impl Fn(&Instr) -> bool) -> usize {
        func.body.iter().filter(|i| pred(i)).count()
    }

    /// The paper's Figure 4 functions.
    fn figure4_program() -> Program {
        minic::compile(
            "struct node { int value; struct node *next; };
             int length(struct node *xs) {
                 int len = 0;
                 while (xs != NULL) {
                     len++;
                     xs = xs->next;
                 }
                 return len;
             }
             int sum(int *a, int len) {
                 int s = 0;
                 for (int i = 0; i < len; i++) { s += a[i]; }
                 return s;
             }",
        )
        .unwrap()
    }

    #[test]
    fn figure4_sum_gets_exactly_one_type_check() {
        let p = instrument_program(&figure4_program(), SanitizerKind::EffectiveFull);
        let sum = p.function("sum").unwrap();
        assert_eq!(
            count(sum, |i| matches!(i, Instr::TypeCheck { .. })),
            1,
            "sum type-checks its input pointer exactly once, outside the loop"
        );
        assert!(count(sum, |i| matches!(i, Instr::BoundsCheck { .. })) >= 1);
    }

    #[test]
    fn figure4_length_checks_loaded_pointers() {
        let p = instrument_program(&figure4_program(), SanitizerKind::EffectiveFull);
        let length = p.function("length").unwrap();
        // Two static type checks: the parameter and the pointer loaded from
        // memory inside the loop (executed O(N) times).
        assert_eq!(count(length, |i| matches!(i, Instr::TypeCheck { .. })), 2);
        // The field access narrows bounds.
        assert!(count(length, |i| matches!(i, Instr::BoundsNarrow { .. })) >= 1);
    }

    #[test]
    fn uninstrumented_program_is_unchanged() {
        let p = figure4_program();
        let out = instrument_program(&p, SanitizerKind::None);
        assert_eq!(out.check_count(), 0);
        assert_eq!(out.instruction_count(), p.instruction_count());
    }

    #[test]
    fn bounds_variant_uses_bounds_get_and_no_narrowing() {
        let p = instrument_program(&figure4_program(), SanitizerKind::EffectiveBounds);
        let length = p.function("length").unwrap();
        assert_eq!(count(length, |i| matches!(i, Instr::TypeCheck { .. })), 0);
        assert!(count(length, |i| matches!(i, Instr::BoundsGet { .. })) >= 1);
        assert_eq!(
            count(length, |i| matches!(i, Instr::BoundsNarrow { .. })),
            0
        );
        assert!(count(length, |i| matches!(i, Instr::BoundsCheck { .. })) >= 1);
    }

    #[test]
    fn type_variant_only_checks_casts() {
        let src = "struct S { int x; };
             struct T { float y; };
             int use_it(struct T *t) { return 1; }
             int f(struct S *s) {
                 struct T *t = (struct T *)s;
                 return use_it(t) + s->x;
             }";
        let p = minic::compile(src).unwrap();
        let full = instrument_program(&p, SanitizerKind::EffectiveType);
        let f = full.function("f").unwrap();
        assert_eq!(count(f, |i| matches!(i, Instr::CastCheck { .. })), 1);
        assert_eq!(count(f, |i| matches!(i, Instr::TypeCheck { .. })), 0);
        assert_eq!(count(f, |i| matches!(i, Instr::BoundsCheck { .. })), 0);
    }

    #[test]
    fn typesan_only_checks_class_casts() {
        let src = "class Base { int x; };
             class Derived : public Base { int y; };
             void sink(Derived *d) {}
             void sink2(int *p) {}
             void f(Base *b, char *buf) {
                 Derived *d = (Derived *)b;
                 int *p = (int *)buf;
                 sink(d);
                 sink2(p);
             }";
        let p = minic::compile(src).unwrap();
        let typesan = instrument_program(&p, SanitizerKind::TypeSan);
        let f = typesan.function("f").unwrap();
        // Only the class cast is instrumented, not the scalar cast.
        assert_eq!(count(f, |i| matches!(i, Instr::CastCheck { .. })), 1);
        // EffectiveSan-type instruments both.
        let est = instrument_program(&p, SanitizerKind::EffectiveType);
        let f = est.function("f").unwrap();
        assert_eq!(count(f, |i| matches!(i, Instr::CastCheck { .. })), 2);
    }

    #[test]
    fn asan_inserts_access_checks_only() {
        let p = instrument_program(&figure4_program(), SanitizerKind::AddressSanitizer);
        let sum = p.function("sum").unwrap();
        assert!(count(sum, |i| matches!(i, Instr::AccessCheck { .. })) >= 1);
        assert_eq!(count(sum, |i| matches!(i, Instr::TypeCheck { .. })), 0);
        assert_eq!(count(sum, |i| matches!(i, Instr::BoundsCheck { .. })), 0);
    }

    #[test]
    fn unused_pointers_are_not_type_checked() {
        // A function that merely casts and returns a pointer attracts no
        // input-pointer instrumentation (§4).
        let src = "struct S { int x; };
             struct T { int y; };
             struct T *just_cast(struct S *s) { return (struct T *)s; }";
        let p = minic::compile(src).unwrap();
        let out = instrument_program(&p, SanitizerKind::EffectiveFull);
        let f = out.function("just_cast").unwrap();
        assert_eq!(count(f, |i| matches!(i, Instr::TypeCheck { .. })), 0);
    }

    #[test]
    fn stores_of_pointers_get_escape_checks() {
        let src = "struct node { struct node *next; };
             void link(struct node *a, struct node *b) { a->next = b; }";
        let p = minic::compile(src).unwrap();
        let out = instrument_program(&p, SanitizerKind::EffectiveFull);
        let f = out.function("link").unwrap();
        assert!(count(f, |i| matches!(i, Instr::BoundsCheck { escape: true, .. })) >= 1);
        assert!(count(f, |i| matches!(i, Instr::BoundsCheck { escape: false, .. })) >= 1);
    }

    #[test]
    fn escapes_off_drops_only_the_escape_checks() {
        let src = "struct node { struct node *next; };
             void link(struct node *a, struct node *b) { a->next = b; }";
        let p = minic::compile(src).unwrap();
        let full = instrument_program(&p, SanitizerKind::EffectiveFull);
        let off = instrument_program(&p, SanitizerKind::EffectiveEscapesOff);
        let f_full = full.function("link").unwrap();
        let f_off = off.function("link").unwrap();
        // The ablation keeps type checks and dereference bounds checks...
        assert_eq!(
            count(f_off, |i| matches!(i, Instr::TypeCheck { .. })),
            count(f_full, |i| matches!(i, Instr::TypeCheck { .. }))
        );
        assert!(
            count(f_off, |i| matches!(
                i,
                Instr::BoundsCheck { escape: false, .. }
            )) >= 1
        );
        // ...but emits no pointer-escape checks at all.
        assert!(
            count(f_full, |i| matches!(
                i,
                Instr::BoundsCheck { escape: true, .. }
            )) >= 1
        );
        assert_eq!(
            count(f_off, |i| matches!(
                i,
                Instr::BoundsCheck { escape: true, .. }
            )),
            0
        );
    }

    #[test]
    fn mpx_pass_checks_accesses_without_narrowing() {
        let p = instrument_program(&figure4_program(), SanitizerKind::Mpx);
        let length = p.function("length").unwrap();
        assert!(count(length, |i| matches!(i, Instr::BoundsGet { .. })) >= 1);
        assert!(count(length, |i| matches!(i, Instr::BoundsCheck { .. })) >= 1);
        assert_eq!(
            count(length, |i| matches!(i, Instr::BoundsNarrow { .. })),
            0,
            "MPX does not narrow to sub-objects"
        );
        assert_eq!(count(length, |i| matches!(i, Instr::TypeCheck { .. })), 0);
    }

    #[test]
    fn memcheck_pass_is_access_check_only_like_asan() {
        let p = instrument_program(&figure4_program(), SanitizerKind::Memcheck);
        let sum = p.function("sum").unwrap();
        assert!(count(sum, |i| matches!(i, Instr::AccessCheck { .. })) >= 1);
        assert_eq!(count(sum, |i| matches!(i, Instr::TypeCheck { .. })), 0);
        assert_eq!(count(sum, |i| matches!(i, Instr::BoundsCheck { .. })), 0);
    }

    #[test]
    fn same_type_casts_are_not_checked() {
        // (T*) cast of something already T*: the check can never fail and
        // is optimized away; bounds are just forwarded.
        let src = "struct T { int x; };
             int f(struct T *t) { struct T *u = (struct T *)t; return u->x; }";
        let p = minic::compile(src).unwrap();
        let out = instrument_program(&p, SanitizerKind::EffectiveFull);
        let f = out.function("f").unwrap();
        // Exactly one type check: the parameter.  The cast adds none.
        assert_eq!(count(f, |i| matches!(i, Instr::TypeCheck { .. })), 1);
    }

    #[test]
    fn tools_that_track_no_bounds_add_no_slots() {
        // Access checks read no bounds slot, so the tools that only do
        // access checks keep the uninstrumented frame size.
        let p = figure4_program();
        for kind in [
            SanitizerKind::AddressSanitizer,
            SanitizerKind::Memcheck,
            SanitizerKind::Cets,
        ] {
            let out = instrument_program(&p, kind);
            for (name, func) in &p.functions {
                let instrumented = out.function(name).unwrap();
                assert!(instrumented.check_count() > 0, "{kind} left {name} bare");
                assert_eq!(
                    instrumented.num_slots, func.num_slots,
                    "{kind} grew the frame of {name}"
                );
            }
        }
    }

    #[test]
    fn jump_targets_remain_valid_after_instrumentation() {
        let p = instrument_program(&figure4_program(), SanitizerKind::EffectiveFull);
        for func in p.functions.values() {
            let len = func.body.len();
            for instr in &func.body {
                match instr {
                    Instr::Jump { target } => assert!(*target <= len),
                    Instr::Branch {
                        then_target,
                        else_target,
                        ..
                    } => {
                        assert!(*then_target <= len);
                        assert!(*else_target <= len);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn check_counts_scale_with_coverage() {
        // Full > bounds > type in static check counts for a pointer-heavy
        // function, mirroring the coverage/overhead trade-off of §6.2.
        let p = figure4_program();
        let full = instrument_program(&p, SanitizerKind::EffectiveFull).check_count();
        let bounds = instrument_program(&p, SanitizerKind::EffectiveBounds).check_count();
        let ty = instrument_program(&p, SanitizerKind::EffectiveType).check_count();
        assert!(full >= bounds, "full={full} bounds={bounds}");
        assert!(bounds > ty, "bounds={bounds} type={ty}");
    }
}
