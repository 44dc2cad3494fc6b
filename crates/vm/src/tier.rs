//! The fast execution tier: pre-resolved instruction streams, one per
//! called function.
//!
//! The slow tier interprets [`minic::ir::Instr`] directly, paying per
//! dispatch for work that never changes across executions: hashing the
//! callee name of every `Call`, hashing structural types in
//! `registry.size_of` on every load/store, resolving global names, and
//! cloning `Arc<str>` site labels.  With tiering on (see
//! [`crate::VmConfig::promote_after_calls`]), each function is translated
//! at its first call into a [`FastFunction`] — a compact stream of
//! [`FastInstr`]s with every operand pre-resolved — and every activation
//! of it runs there:
//!
//! * load/store element types become a [`LoadKind`] (no registry lookups),
//! * callees become indices into the VM's function table,
//! * globals become absolute [`Ptr`]s,
//! * check-site static types become backend [`TypeId`]s,
//! * `Alloca` sizes are pre-multiplied,
//! * and adjacent check+load / check+store pairs are fused into
//!   superinstructions so one dispatch does what two did.
//!
//! Translation preserves the slow tier's event sequence (same instruction
//! counting, same check order, same halt points), so every statistic is
//! bit-identical between tiers: the fast tier runs every check the slow
//! tier runs, and the backend's check counters match exactly.  This
//! module never decides that a check can be skipped, and every check
//! instruction it dispatches is one sanitizer hook call.  The slow tier
//! remains the semantic oracle (see `tests/tiered_differential.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use effective_types::{Type, TypeId, TypeRegistry};
use lowfat::Ptr;
use minic::ast::{BinOp, UnOp};
use minic::ir::{Builtin, CastKind, Const, Function, Instr, Slot};

/// Sentinel for "no slot / no index" in [`FastInstr`] operands.
pub const NO_INDEX: u32 = u32::MAX;

/// Pre-resolved memory-access width, replacing the per-access
/// `registry.size_of` hash of the slow tier.  Mirrors the slow tier's
/// `load_typed`/`store_typed` dispatch exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadKind {
    /// A pointer-sized load/store (`read_u64`).
    Ptr,
    /// A 4-byte float.
    F32,
    /// An 8-byte float.
    F64,
    /// A sign-extended integer of the given byte width (1..=8).
    Int(u8),
}

impl LoadKind {
    /// Resolve a static element type to its access kind, mirroring the
    /// slow tier's fallbacks (`unwrap_or(8)`, `min(8)`).
    pub fn of(registry: &TypeRegistry, ty: &Type) -> LoadKind {
        if ty.is_pointer() {
            return LoadKind::Ptr;
        }
        if ty.is_float() {
            return if registry.size_of(ty).unwrap_or(8) == 4 {
                LoadKind::F32
            } else {
                LoadKind::F64
            };
        }
        LoadKind::Int(registry.size_of(ty).unwrap_or(8).min(8) as u8)
    }
}

/// A `(start, len)` window into [`FastFunction::args`] holding a call's
/// argument slots.
#[derive(Clone, Copy, Debug)]
pub struct ArgRange {
    /// First index into the argument pool.
    pub start: u32,
    /// Number of arguments.
    pub len: u16,
}

/// One pre-resolved fast-tier instruction.  `Copy` and small by
/// construction: every heap-allocated operand of the slow tier
/// ([`Type`], `Arc<str>`, `String`, `Vec`) is replaced by an index into a
/// side table on the owning [`FastFunction`].
#[derive(Clone, Copy, Debug)]
pub enum FastInstr {
    /// `dst = int constant`
    ConstInt {
        /// Destination slot.
        dst: Slot,
        /// The value.
        value: i64,
    },
    /// `dst = float constant`
    ConstFloat {
        /// Destination slot.
        dst: Slot,
        /// The value.
        value: f64,
    },
    /// `dst = NULL`
    ConstNull {
        /// Destination slot.
        dst: Slot,
    },
    /// `dst = src`
    Copy {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// Binary operation.
    Bin {
        /// Destination slot.
        dst: Slot,
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        lhs: Slot,
        /// Right operand slot.
        rhs: Slot,
        /// Float (vs. integer) evaluation.
        float: bool,
    },
    /// Unary operation.
    Un {
        /// Destination slot.
        dst: Slot,
        /// Operator.
        op: UnOp,
        /// Operand slot.
        src: Slot,
        /// Float (vs. integer) evaluation.
        float: bool,
    },
    /// Stack allocation with the byte size pre-multiplied.
    Alloca {
        /// Destination slot.
        dst: Slot,
        /// Element type (index into [`FastFunction::types`], for the
        /// backend's `on_alloc`).
        ty: u32,
        /// Total size in bytes (`elem_size * count`, saturating).
        size: u64,
    },
    /// `dst = &global`, pre-resolved to the global's address.
    GlobalAddr {
        /// Destination slot.
        dst: Slot,
        /// The global's address (NULL if undefined).
        ptr: Ptr,
    },
    /// `dst = *ptr`
    Load {
        /// Destination slot.
        dst: Slot,
        /// Address slot.
        ptr: Slot,
        /// Pre-resolved access width.
        kind: LoadKind,
    },
    /// `*ptr = src`
    Store {
        /// Address slot.
        ptr: Slot,
        /// Value slot.
        src: Slot,
        /// Pre-resolved access width.
        kind: LoadKind,
    },
    /// `dst = base + offset`
    FieldAddr {
        /// Destination slot.
        dst: Slot,
        /// Base pointer slot.
        base: Slot,
        /// Byte offset.
        offset: u64,
    },
    /// `dst = base + index * elem_size`
    PtrAdd {
        /// Destination slot.
        dst: Slot,
        /// Base pointer slot.
        base: Slot,
        /// Index slot.
        index: Slot,
        /// Element size in bytes.
        elem_size: u64,
    },
    /// Pointer-producing cast (`Bit` / `IntToPtr`).
    CastPtr {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// `PtrToInt` cast.
    CastPtrToInt {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// Numeric cast to a float type.
    CastFloat {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// Numeric cast to an integer type.
    CastInt {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// Call of a known function, by function-table index.
    Call {
        /// Destination slot ([`NO_INDEX`] when the result is unused).
        dst: u32,
        /// Index into the VM's function table.
        callee: u32,
        /// Argument slots.
        args: ArgRange,
    },
    /// Call of a function not present in the program (kept name-based so
    /// the slow tier's `UndefinedFunction` semantics are preserved).
    CallUnknown {
        /// Destination slot ([`NO_INDEX`] when the result is unused).
        dst: u32,
        /// Callee name (index into [`FastFunction::names`]).
        name: u32,
        /// Argument slots.
        args: ArgRange,
    },
    /// Builtin call.
    CallBuiltin {
        /// Destination slot ([`NO_INDEX`] when the result is unused).
        dst: u32,
        /// The builtin.
        builtin: Builtin,
        /// Argument slots.
        args: ArgRange,
        /// Inferred allocation type (index into [`FastFunction::types`],
        /// [`NO_INDEX`] for none).
        alloc_ty: u32,
    },
    /// Unconditional jump (fast-tier pc).
    Jump {
        /// Target pc.
        target: u32,
    },
    /// Conditional branch (fast-tier pcs).
    Branch {
        /// Condition slot.
        cond: Slot,
        /// Target when truthy.
        then_target: u32,
        /// Target when falsy.
        else_target: u32,
    },
    /// Return ([`NO_INDEX`] value slot returns 0).
    Return {
        /// Returned value slot or [`NO_INDEX`].
        value: u32,
    },
    /// `dst = type_check(ptr, ty)` with the static type pre-interned into
    /// the backend's id space.
    TypeCheck {
        /// Destination bounds slot.
        dst: Slot,
        /// Checked pointer slot.
        ptr: Slot,
        /// Backend type id of the static type.
        ty: TypeId,
        /// Site label (index into [`FastFunction::sites`]).
        site: u32,
    },
    /// `dst = cast_check(ptr, ty)`.
    CastCheck {
        /// Destination bounds slot.
        dst: Slot,
        /// Checked pointer slot.
        ptr: Slot,
        /// Backend type id of the static type.
        ty: TypeId,
        /// Site label (index into [`FastFunction::sites`]).
        site: u32,
    },
    /// `dst = bounds_get(ptr)`.
    BoundsGet {
        /// Destination bounds slot.
        dst: Slot,
        /// Pointer slot.
        ptr: Slot,
    },
    /// `dst = bounds_narrow(bounds, field_base..field_base+size)`.
    BoundsNarrow {
        /// Destination bounds slot.
        dst: Slot,
        /// Input bounds slot.
        bounds: Slot,
        /// Field base pointer slot.
        field_base: Slot,
        /// Field size in bytes.
        size: u64,
    },
    /// `bounds_check(ptr, size, bounds)`.
    BoundsCheck {
        /// Checked pointer slot.
        ptr: Slot,
        /// Bounds slot.
        bounds: Slot,
        /// Access size in bytes.
        size: u64,
        /// Escape (vs. dereference) check.
        escape: bool,
        /// Site label (index into [`FastFunction::sites`]).
        site: u32,
    },
    /// `access_check(ptr, size, write)`.
    AccessCheck {
        /// Checked pointer slot.
        ptr: Slot,
        /// Access size in bytes.
        size: u64,
        /// Write (vs. read) access.
        write: bool,
        /// Site label (index into [`FastFunction::sites`]).
        site: u32,
    },

    // ----- superinstructions: fused check + memory-access pairs -----
    /// `bounds_check(ptr, check_size, bounds); dst = *ptr` — a dereference
    /// guard fused with the load it guards (same pointer slot, the load is
    /// not a jump target).
    CheckLoad {
        /// Destination slot of the load.
        dst: Slot,
        /// Address slot (checked and loaded).
        ptr: Slot,
        /// Bounds slot of the check.
        bounds: Slot,
        /// Access size of the check.
        check_size: u64,
        /// Site label (index into [`FastFunction::sites`]).
        site: u32,
        /// Pre-resolved access width of the load.
        kind: LoadKind,
    },
    /// `bounds_check(ptr, check_size, bounds); *ptr = src`.
    CheckStore {
        /// Address slot (checked and stored to).
        ptr: Slot,
        /// Bounds slot of the check.
        bounds: Slot,
        /// Value slot.
        src: Slot,
        /// Access size of the check.
        check_size: u64,
        /// Site label (index into [`FastFunction::sites`]).
        site: u32,
        /// Pre-resolved access width of the store.
        kind: LoadKind,
    },
    /// `access_check(ptr, check_size, read); dst = *ptr`.
    AccessLoad {
        /// Destination slot of the load.
        dst: Slot,
        /// Address slot (checked and loaded).
        ptr: Slot,
        /// Access size of the check.
        check_size: u64,
        /// Site label (index into [`FastFunction::sites`]).
        site: u32,
        /// Pre-resolved access width of the load.
        kind: LoadKind,
    },
    /// `access_check(ptr, check_size, write); *ptr = src`.
    AccessStore {
        /// Address slot (checked and stored to).
        ptr: Slot,
        /// Value slot.
        src: Slot,
        /// Access size of the check.
        check_size: u64,
        /// Site label (index into [`FastFunction::sites`]).
        site: u32,
        /// Pre-resolved access width of the store.
        kind: LoadKind,
    },
}

/// A function translated to the fast tier: the pre-resolved body plus
/// the side tables its instructions index into.
#[derive(Debug)]
pub struct FastFunction {
    /// The fast instruction stream.
    pub body: Vec<FastInstr>,
    /// Check-site labels.
    pub sites: Vec<Arc<str>>,
    /// Allocation element types (for `on_alloc`).
    pub types: Vec<Type>,
    /// Names of callees absent from the function table.
    pub names: Vec<String>,
    /// Flattened call-argument slots, windowed by [`ArgRange`].
    pub args: Vec<Slot>,
}

impl FastFunction {
    /// Translate a slow-tier function into its fast form.
    ///
    /// `globals` resolves `GlobalAddr` names, `func_index` resolves
    /// callees, and `check_type_map` maps the program's instrument-time
    /// [`TypeId`]s to the backend's id space (as built by the VM at
    /// load time).  Translation is a pure re-encoding, one instruction at
    /// a time, apart from the check+access fusions below.
    pub fn translate(
        func: &Function,
        registry: &TypeRegistry,
        globals: &HashMap<String, Ptr>,
        func_index: &HashMap<String, u32>,
        check_type_map: &[TypeId],
    ) -> FastFunction {
        let body = &func.body;
        let mut jump_target = vec![false; body.len() + 1];
        for instr in body {
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

        // Slow-tier pc → fast-tier pc (`body.len() + 1` entries; the final
        // entry maps one-past-the-end).  The consumed second halves of
        // fused pairs are never jump targets and keep `NO_INDEX`.
        let mut pc_map = vec![NO_INDEX; body.len() + 1];
        let mut out = FastFunction {
            body: Vec::with_capacity(body.len()),
            sites: Vec::new(),
            types: Vec::new(),
            names: Vec::new(),
            args: Vec::new(),
        };

        let mut i = 0;
        while i < body.len() {
            pc_map[i] = out.body.len() as u32;
            // Superinstruction fusion: a dereference guard directly
            // followed by the access it guards (same pointer slot), where
            // the access is not a jump target, executes as one dispatch.
            let next = if i + 1 < body.len() && !jump_target[i + 1] {
                Some(&body[i + 1])
            } else {
                None
            };
            let fused = match (&body[i], next) {
                (
                    Instr::BoundsCheck {
                        ptr,
                        bounds,
                        size,
                        escape: false,
                        loc,
                    },
                    Some(Instr::Load { dst, ptr: p2, ty }),
                ) if p2 == ptr => Some(FastInstr::CheckLoad {
                    dst: *dst,
                    ptr: *ptr,
                    bounds: *bounds,
                    check_size: *size,
                    site: out.push_site(loc),
                    kind: LoadKind::of(registry, ty),
                }),
                (
                    Instr::BoundsCheck {
                        ptr,
                        bounds,
                        size,
                        escape: false,
                        loc,
                    },
                    Some(Instr::Store { ptr: p2, src, ty }),
                ) if p2 == ptr => Some(FastInstr::CheckStore {
                    ptr: *ptr,
                    bounds: *bounds,
                    src: *src,
                    check_size: *size,
                    site: out.push_site(loc),
                    kind: LoadKind::of(registry, ty),
                }),
                (
                    Instr::AccessCheck {
                        ptr,
                        size,
                        write: false,
                        loc,
                    },
                    Some(Instr::Load { dst, ptr: p2, ty }),
                ) if p2 == ptr => Some(FastInstr::AccessLoad {
                    dst: *dst,
                    ptr: *ptr,
                    check_size: *size,
                    site: out.push_site(loc),
                    kind: LoadKind::of(registry, ty),
                }),
                (
                    Instr::AccessCheck {
                        ptr,
                        size,
                        write: true,
                        loc,
                    },
                    Some(Instr::Store { ptr: p2, src, ty }),
                ) if p2 == ptr => Some(FastInstr::AccessStore {
                    ptr: *ptr,
                    src: *src,
                    check_size: *size,
                    site: out.push_site(loc),
                    kind: LoadKind::of(registry, ty),
                }),
                _ => None,
            };
            match fused {
                Some(f) => {
                    out.body.push(f);
                    i += 2;
                }
                None => {
                    let f =
                        out.translate_one(&body[i], registry, globals, func_index, check_type_map);
                    out.body.push(f);
                    i += 1;
                }
            }
        }
        pc_map[body.len()] = out.body.len() as u32;

        // Jump targets were emitted as slow-tier pcs; map them.  A jump
        // target is never the consumed half of a fused pair (fusion
        // requires the access not be one), so its `pc_map` entry is valid.
        for fi in &mut out.body {
            match fi {
                FastInstr::Jump { target } => *target = pc_map[*target as usize],
                FastInstr::Branch {
                    then_target,
                    else_target,
                    ..
                } => {
                    *then_target = pc_map[*then_target as usize];
                    *else_target = pc_map[*else_target as usize];
                }
                _ => {}
            }
        }
        out
    }

    fn push_site(&mut self, loc: &Arc<str>) -> u32 {
        self.sites.push(loc.clone());
        (self.sites.len() - 1) as u32
    }

    fn push_type(&mut self, ty: &Type) -> u32 {
        self.types.push(ty.clone());
        (self.types.len() - 1) as u32
    }

    fn push_args(&mut self, args: &[Slot]) -> ArgRange {
        let start = self.args.len() as u32;
        self.args.extend_from_slice(args);
        ArgRange {
            start,
            len: args.len() as u16,
        }
    }

    fn translate_one(
        &mut self,
        instr: &Instr,
        registry: &TypeRegistry,
        globals: &HashMap<String, Ptr>,
        func_index: &HashMap<String, u32>,
        check_type_map: &[TypeId],
    ) -> FastInstr {
        match instr {
            Instr::Const { dst, value } => match value {
                Const::Int(v) => FastInstr::ConstInt {
                    dst: *dst,
                    value: *v,
                },
                Const::Float(v) => FastInstr::ConstFloat {
                    dst: *dst,
                    value: *v,
                },
                Const::Null => FastInstr::ConstNull { dst: *dst },
            },
            Instr::Copy { dst, src } => FastInstr::Copy {
                dst: *dst,
                src: *src,
            },
            Instr::Bin {
                dst,
                op,
                lhs,
                rhs,
                float,
            } => FastInstr::Bin {
                dst: *dst,
                op: *op,
                lhs: *lhs,
                rhs: *rhs,
                float: *float,
            },
            Instr::Un {
                dst,
                op,
                src,
                float,
            } => FastInstr::Un {
                dst: *dst,
                op: *op,
                src: *src,
                float: *float,
            },
            Instr::Alloca { dst, ty, count } => {
                let elem_size = registry.size_of(ty).unwrap_or(1).max(1);
                FastInstr::Alloca {
                    dst: *dst,
                    ty: self.push_type(ty),
                    size: elem_size.saturating_mul(*count.max(&1)),
                }
            }
            Instr::GlobalAddr { dst, name } => FastInstr::GlobalAddr {
                dst: *dst,
                ptr: globals.get(name).copied().unwrap_or(Ptr::NULL),
            },
            Instr::Load { dst, ptr, ty } => FastInstr::Load {
                dst: *dst,
                ptr: *ptr,
                kind: LoadKind::of(registry, ty),
            },
            Instr::Store { ptr, src, ty } => FastInstr::Store {
                ptr: *ptr,
                src: *src,
                kind: LoadKind::of(registry, ty),
            },
            Instr::FieldAddr {
                dst, base, offset, ..
            } => FastInstr::FieldAddr {
                dst: *dst,
                base: *base,
                offset: *offset,
            },
            Instr::PtrAdd {
                dst,
                base,
                index,
                elem_size,
                ..
            } => FastInstr::PtrAdd {
                dst: *dst,
                base: *base,
                index: *index,
                elem_size: *elem_size,
            },
            Instr::Cast {
                dst,
                src,
                kind,
                to_ty,
                ..
            } => match kind {
                CastKind::Bit | CastKind::IntToPtr => FastInstr::CastPtr {
                    dst: *dst,
                    src: *src,
                },
                CastKind::PtrToInt => FastInstr::CastPtrToInt {
                    dst: *dst,
                    src: *src,
                },
                CastKind::Numeric => {
                    if to_ty.is_float() {
                        FastInstr::CastFloat {
                            dst: *dst,
                            src: *src,
                        }
                    } else {
                        FastInstr::CastInt {
                            dst: *dst,
                            src: *src,
                        }
                    }
                }
            },
            Instr::Call {
                dst, callee, args, ..
            } => {
                let args = self.push_args(args);
                let dst = dst.unwrap_or(NO_INDEX);
                match func_index.get(callee) {
                    Some(&idx) => FastInstr::Call {
                        dst,
                        callee: idx,
                        args,
                    },
                    None => {
                        self.names.push(callee.clone());
                        FastInstr::CallUnknown {
                            dst,
                            name: (self.names.len() - 1) as u32,
                            args,
                        }
                    }
                }
            }
            Instr::CallBuiltin {
                dst,
                builtin,
                args,
                alloc_ty,
                ..
            } => FastInstr::CallBuiltin {
                dst: dst.unwrap_or(NO_INDEX),
                builtin: *builtin,
                args: self.push_args(args),
                alloc_ty: alloc_ty
                    .as_ref()
                    .map(|t| self.push_type(t))
                    .unwrap_or(NO_INDEX),
            },
            Instr::Jump { target } => FastInstr::Jump {
                target: *target as u32,
            },
            Instr::Branch {
                cond,
                then_target,
                else_target,
            } => FastInstr::Branch {
                cond: *cond,
                then_target: *then_target as u32,
                else_target: *else_target as u32,
            },
            Instr::Return { value } => FastInstr::Return {
                value: value.unwrap_or(NO_INDEX),
            },
            Instr::TypeCheck {
                dst,
                ptr,
                ty_id,
                loc,
                ..
            } => FastInstr::TypeCheck {
                dst: *dst,
                ptr: *ptr,
                ty: check_type_map
                    .get(ty_id.index())
                    .copied()
                    .unwrap_or(TypeId::UNTYPED),
                site: self.push_site(loc),
            },
            Instr::CastCheck {
                dst,
                ptr,
                ty_id,
                loc,
                ..
            } => FastInstr::CastCheck {
                dst: *dst,
                ptr: *ptr,
                ty: check_type_map
                    .get(ty_id.index())
                    .copied()
                    .unwrap_or(TypeId::UNTYPED),
                site: self.push_site(loc),
            },
            Instr::BoundsGet { dst, ptr } => FastInstr::BoundsGet {
                dst: *dst,
                ptr: *ptr,
            },
            Instr::BoundsNarrow {
                dst,
                bounds,
                field_base,
                size,
            } => FastInstr::BoundsNarrow {
                dst: *dst,
                bounds: *bounds,
                field_base: *field_base,
                size: *size,
            },
            Instr::BoundsCheck {
                ptr,
                bounds,
                size,
                escape,
                loc,
            } => FastInstr::BoundsCheck {
                ptr: *ptr,
                bounds: *bounds,
                size: *size,
                escape: *escape,
                site: self.push_site(loc),
            },
            Instr::AccessCheck {
                ptr,
                size,
                write,
                loc,
            } => FastInstr::AccessCheck {
                ptr: *ptr,
                size: *size,
                write: *write,
                site: self.push_site(loc),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_kind_mirrors_the_slow_tier_fallbacks() {
        let registry = TypeRegistry::new();
        assert_eq!(
            LoadKind::of(&registry, &Type::ptr(Type::int())),
            LoadKind::Ptr
        );
        assert_eq!(LoadKind::of(&registry, &Type::float()), LoadKind::F32);
        assert_eq!(LoadKind::of(&registry, &Type::double()), LoadKind::F64);
        assert_eq!(LoadKind::of(&registry, &Type::char_()), LoadKind::Int(1));
        assert_eq!(LoadKind::of(&registry, &Type::int()), LoadKind::Int(4));
    }
}
