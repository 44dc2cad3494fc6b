//! The typed intermediate representation.
//!
//! The IR plays the role of the "type annotated LLVM IR" the paper's
//! modified clang front-end produces (§6): a flat list of instructions per
//! function, with virtual-register *slots*, explicit memory operations, and
//! a static type annotation on every instruction that touches memory or
//! produces a pointer.  The instrumentation pass (crate `instrument`)
//! rewrites this IR by inserting the check instructions
//! ([`Instr::TypeCheck`], [`Instr::BoundsCheck`], …), which the VM then
//! dispatches to the EffectiveSan runtime (crate `effective-runtime`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use effective_types::{Type, TypeId, TypeRegistry};

use crate::ast::{BinOp, UnOp};

/// A virtual-register / local-slot index within a function frame.
pub type Slot = u32;

/// A compile-time constant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Const {
    /// An integer (also used for booleans and characters).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// The null pointer.
    Null,
}

/// How a cast converts its operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CastKind {
    /// Pointer-to-pointer reinterpretation (no value change).
    Bit,
    /// Numeric conversion (int↔float, truncation, extension).
    Numeric,
    /// Pointer to integer.
    PtrToInt,
    /// Integer to pointer.
    IntToPtr,
}

/// Built-in functions recognised by the compiler and executed directly by
/// the VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `malloc(size)` — typed via allocation-type inference (Example 1).
    Malloc,
    /// `calloc(n, size)` — zeroed allocation.
    Calloc,
    /// `realloc(p, size)`.
    Realloc,
    /// `free(p)`.
    Free,
    /// C++ `new T` / `new T[n]`.
    New,
    /// C++ `delete p` / `delete[] p`.
    Delete,
    /// `memcpy(dst, src, n)`.
    Memcpy,
    /// `memmove(dst, src, n)`.
    Memmove,
    /// `memset(p, byte, n)`.
    Memset,
    /// `strlen`-alike used by string workloads.
    Strlen,
    /// A custom-memory-allocator allocation: returns *legacy* (non-low-fat)
    /// memory, exercising the uninstrumented-code compatibility path.
    CmaAlloc,
    /// Free for [`Builtin::CmaAlloc`] memory (a no-op at the allocator
    /// level; kept for symmetry).
    CmaFree,
    /// Print an integer (harness output).
    PrintInt,
    /// Print a float (harness output).
    PrintFloat,
    /// Print a string constant (harness output).
    PrintStr,
    /// Pseudo-random number generator (deterministic, per-VM seed).
    Rand,
    /// Abort execution.
    Abort,
}

impl Builtin {
    /// Resolve a source-level callee name to a builtin.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "malloc" => Builtin::Malloc,
            "calloc" => Builtin::Calloc,
            "realloc" => Builtin::Realloc,
            "free" => Builtin::Free,
            "memcpy" => Builtin::Memcpy,
            "memmove" => Builtin::Memmove,
            "memset" => Builtin::Memset,
            "strlen" => Builtin::Strlen,
            "cma_alloc" | "xmalloc" | "pool_alloc" | "arena_alloc" => Builtin::CmaAlloc,
            "cma_free" | "xfree" | "pool_free" | "arena_free" => Builtin::CmaFree,
            "print_int" | "printf_int" => Builtin::PrintInt,
            "print_float" => Builtin::PrintFloat,
            "print_str" | "puts" => Builtin::PrintStr,
            "rand" | "random" => Builtin::Rand,
            "abort" | "exit" => Builtin::Abort,
            _ => return None,
        })
    }

    /// Does this builtin allocate memory whose type must be inferred?
    pub fn is_allocation(self) -> bool {
        matches!(
            self,
            Builtin::Malloc | Builtin::Calloc | Builtin::Realloc | Builtin::New | Builtin::CmaAlloc
        )
    }

    /// How many leading arguments are pointers into the simulated address
    /// space.  `memset(dst, byte, n)`'s second argument is the fill byte and
    /// `realloc(ptr, size)`'s second argument is a size — neither is a
    /// pointer, so instrumentation must not guard (or track) them as such.
    pub fn pointer_args(self) -> usize {
        match self {
            Builtin::Memcpy | Builtin::Memmove => 2,
            Builtin::Memset
            | Builtin::Strlen
            | Builtin::Free
            | Builtin::Delete
            | Builtin::Realloc
            | Builtin::CmaFree => 1,
            _ => 0,
        }
    }
}

/// One IR instruction.
///
/// Control flow uses absolute instruction indices within the owning
/// function's body (`Jump`/`Branch` targets).
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `dst = constant`
    Const {
        /// Destination slot.
        dst: Slot,
        /// The constant value.
        value: Const,
    },
    /// `dst = src`
    Copy {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
    },
    /// `dst = lhs op rhs`
    Bin {
        /// Destination slot.
        dst: Slot,
        /// Operator (never a short-circuit logical operator; those are
        /// lowered to control flow).
        op: BinOp,
        /// Left operand.
        lhs: Slot,
        /// Right operand.
        rhs: Slot,
        /// Operate on floats rather than integers/pointers.
        float: bool,
    },
    /// `dst = op src`
    Un {
        /// Destination slot.
        dst: Slot,
        /// Operator.
        op: UnOp,
        /// Operand.
        src: Slot,
        /// Operate on floats.
        float: bool,
    },
    /// Allocate a stack object of `count` elements of `ty`; `dst` receives
    /// the pointer.  Lowered from address-taken locals and local aggregates.
    Alloca {
        /// Destination slot (pointer to the new object).
        dst: Slot,
        /// Element type.
        ty: Type,
        /// Number of elements.
        count: u64,
    },
    /// `dst = &global`
    GlobalAddr {
        /// Destination slot.
        dst: Slot,
        /// Global name.
        name: String,
    },
    /// `dst = *(ty *)ptr`
    Load {
        /// Destination slot.
        dst: Slot,
        /// Pointer slot.
        ptr: Slot,
        /// Static type of the loaded value.
        ty: Type,
    },
    /// `*(ty *)ptr = src`
    Store {
        /// Pointer slot.
        ptr: Slot,
        /// Value to store.
        src: Slot,
        /// Static type of the stored value.
        ty: Type,
    },
    /// `dst = &base->field` (or `&base.field` via an alloca pointer).
    FieldAddr {
        /// Destination slot.
        dst: Slot,
        /// Base pointer slot.
        base: Slot,
        /// The record type containing the field.
        record: Type,
        /// Field name (for diagnostics).
        field: String,
        /// Byte offset of the field.
        offset: u64,
        /// The field's type.
        field_ty: Type,
        /// The field's size in bytes (used for bounds narrowing).
        field_size: u64,
    },
    /// `dst = base + index * elem_size` (pointer arithmetic / array
    /// indexing; the dynamic type is invariant, so bounds propagate).
    PtrAdd {
        /// Destination slot.
        dst: Slot,
        /// Base pointer slot.
        base: Slot,
        /// Index slot (signed element count).
        index: Slot,
        /// Element size in bytes.
        elem_size: u64,
        /// Element type (the static pointee).
        elem_ty: Type,
    },
    /// A cast.
    Cast {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        src: Slot,
        /// Conversion kind.
        kind: CastKind,
        /// Source static type.
        from_ty: Type,
        /// Destination static type.
        to_ty: Type,
        /// Whether the cast was written explicitly in the source (explicit
        /// casts are the instrumentation points of EffectiveSan-type).
        explicit: bool,
    },
    /// A call to a user-defined function.
    Call {
        /// Destination slot (absent for `void` calls).
        dst: Option<Slot>,
        /// Callee name.
        callee: String,
        /// Argument slots.
        args: Vec<Slot>,
        /// Static types of the arguments (parallel to `args`).
        arg_tys: Vec<Type>,
        /// Static return type.
        ret_ty: Type,
    },
    /// A call to a builtin.
    CallBuiltin {
        /// Destination slot.
        dst: Option<Slot>,
        /// The builtin.
        builtin: Builtin,
        /// Argument slots.
        args: Vec<Slot>,
        /// For allocation builtins: the inferred allocation (element) type
        /// (Example 1's "first lvalue usage" analysis).
        alloc_ty: Option<Type>,
        /// Static return type.
        ret_ty: Type,
    },
    /// Unconditional jump to an instruction index.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Conditional branch.
    Branch {
        /// Condition slot (non-zero = true).
        cond: Slot,
        /// Target when true.
        then_target: usize,
        /// Target when false.
        else_target: usize,
    },
    /// Return from the function.
    Return {
        /// Returned value slot, if any.
        value: Option<Slot>,
    },
    // ----- Instrumentation (inserted by the `instrument` crate) -----
    /// `dst = type_check(ptr, ty[])` — Fig. 3(a)–(d).
    TypeCheck {
        /// Destination bounds slot.
        dst: Slot,
        /// Checked pointer slot.
        ptr: Slot,
        /// The static (incomplete) type to check against.
        ty: Type,
        /// The same type, interned once at instrument time so the check
        /// hot path never hashes a structural [`Type`].
        ty_id: TypeId,
        /// Instrumentation-site label.
        loc: Arc<str>,
    },
    /// `dst = cast_check(ptr, ty[])` — the EffectiveSan-type variant's
    /// cast-site check (§6.2).
    CastCheck {
        /// Destination bounds slot.
        dst: Slot,
        /// Checked pointer slot.
        ptr: Slot,
        /// The cast target type.
        ty: Type,
        /// The same type, interned once at instrument time.
        ty_id: TypeId,
        /// Instrumentation-site label.
        loc: Arc<str>,
    },
    /// `dst = bounds_get(ptr)` — the EffectiveSan-bounds variant's
    /// allocation-bounds query (§6.2).
    BoundsGet {
        /// Destination bounds slot.
        dst: Slot,
        /// Pointer slot.
        ptr: Slot,
    },
    /// `dst = bounds_narrow(bounds, field_base .. field_base+size)` —
    /// Fig. 3(e).
    BoundsNarrow {
        /// Destination bounds slot.
        dst: Slot,
        /// Input bounds slot.
        bounds: Slot,
        /// Slot holding the field base pointer.
        field_base: Slot,
        /// Field size in bytes.
        size: u64,
    },
    /// `bounds_check(ptr, bounds)` before an access of `size` bytes —
    /// Fig. 3(g).
    BoundsCheck {
        /// Pointer slot.
        ptr: Slot,
        /// Bounds slot.
        bounds: Slot,
        /// Access size in bytes.
        size: u64,
        /// Whether this guards a pointer escape rather than a dereference.
        escape: bool,
        /// Instrumentation-site label.
        loc: Arc<str>,
    },
    /// A per-access check used by baseline sanitizers (AddressSanitizer's
    /// shadow-memory check, CETS's temporal check): validate an access of
    /// `size` bytes at `ptr` against the sanitizer's own meta data, with no
    /// propagated bounds.
    AccessCheck {
        /// Pointer slot.
        ptr: Slot,
        /// Access size in bytes.
        size: u64,
        /// Whether the access is a write.
        write: bool,
        /// Instrumentation-site label.
        loc: Arc<str>,
    },
}

impl Instr {
    /// The destination slot written by this instruction, if any.
    pub fn dst(&self) -> Option<Slot> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Alloca { dst, .. }
            | Instr::GlobalAddr { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::FieldAddr { dst, .. }
            | Instr::PtrAdd { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::TypeCheck { dst, .. }
            | Instr::CastCheck { dst, .. }
            | Instr::BoundsGet { dst, .. }
            | Instr::BoundsNarrow { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } | Instr::CallBuiltin { dst, .. } => *dst,
            _ => None,
        }
    }

    /// The destination slot, mutably: retargets the instruction to write
    /// another slot.
    pub(crate) fn dst_mut(&mut self) -> Option<&mut Slot> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Alloca { dst, .. }
            | Instr::GlobalAddr { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::FieldAddr { dst, .. }
            | Instr::PtrAdd { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::TypeCheck { dst, .. }
            | Instr::CastCheck { dst, .. }
            | Instr::BoundsGet { dst, .. }
            | Instr::BoundsNarrow { dst, .. } => Some(dst),
            Instr::Call { dst, .. } | Instr::CallBuiltin { dst, .. } => dst.as_mut(),
            _ => None,
        }
    }

    /// Is this one of the instrumentation instructions?
    pub fn is_check(&self) -> bool {
        matches!(
            self,
            Instr::TypeCheck { .. }
                | Instr::CastCheck { .. }
                | Instr::BoundsGet { .. }
                | Instr::BoundsNarrow { .. }
                | Instr::BoundsCheck { .. }
                | Instr::AccessCheck { .. }
        )
    }

    /// Is this a control-flow terminator or jump?
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Jump { .. } | Instr::Branch { .. } | Instr::Return { .. }
        )
    }
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Static type.
    pub ty: Type,
    /// Slot the argument value arrives in.
    pub slot: Slot,
}

/// A lowered function.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: Type,
    /// Number of slots in the frame (parameters + locals + temporaries).
    pub num_slots: usize,
    /// The instruction sequence.
    pub body: Vec<Instr>,
}

impl Function {
    /// Allocate a fresh slot (used by instrumentation passes).
    pub fn new_slot(&mut self) -> Slot {
        let s = self.num_slots as Slot;
        self.num_slots += 1;
        s
    }

    /// Count instructions.
    pub fn instruction_count(&self) -> usize {
        self.body.len()
    }

    /// Count instrumentation (check) instructions.
    pub fn check_count(&self) -> usize {
        self.body.iter().filter(|i| i.is_check()).count()
    }
}

/// A global variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Global name.
    pub name: String,
    /// Type of the global object.
    pub ty: Type,
    /// Size in bytes.
    pub size: u64,
    /// Optional initial bytes (zero-filled when absent or shorter than
    /// `size`).
    pub init: Option<Vec<u8>>,
}

/// A lowered program (translation unit).
///
/// Functions are stored behind [`Arc`] so an interpreter can resolve a
/// callee with a reference-count bump instead of deep-cloning the body on
/// every call; instrumentation passes rewrite in place via
/// [`Arc::make_mut`].
#[derive(Clone, Debug)]
pub struct Program {
    /// The type registry collected from record definitions.
    pub registry: Arc<TypeRegistry>,
    /// Global variables (including materialised string literals).
    pub globals: Vec<Global>,
    /// Functions by name.
    pub functions: HashMap<String, Arc<Function>>,
    /// Number of source lines the program was compiled from (the
    /// `kilo-sLOC` column of Figure 7).
    pub source_lines: usize,
}

impl Program {
    /// Look up a function.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get(name).map(|f| f.as_ref())
    }

    /// Total instruction count across all functions.
    pub fn instruction_count(&self) -> usize {
        self.functions.values().map(|f| f.instruction_count()).sum()
    }

    /// Total check-instruction count across all functions.
    pub fn check_count(&self) -> usize {
        self.functions.values().map(|f| f.check_count()).sum()
    }

    /// Every type the program can hand to the runtime — allocation element
    /// types (`Alloca`, allocation builtins, globals) and the static types
    /// of check instructions — in a deterministic order, deduplicated
    /// across both lists (a type that is both an allocation and a check
    /// type appears only in `alloc`).
    ///
    /// Used to pre-intern type meta data at load time
    /// (`Sanitizer::preload_types`), so the check hot path never pays a
    /// first-touch layout build.  Allocation and check types are kept
    /// apart because only the former get layout tables built; the latter
    /// are interned as layout-table keys only.  Determinism matters:
    /// `META` ids are assigned in this order, and
    /// parallel/sequential/sharded runs of the same program must produce
    /// identical simulated memory.
    pub fn referenced_types(&self) -> ReferencedTypes {
        let mut seen = std::collections::HashSet::new();
        let mut alloc = Vec::new();
        let mut checks = Vec::new();
        let mut add = |out: &mut Vec<Type>, ty: &Type| {
            if seen.insert(ty.clone()) {
                out.push(ty.clone());
            }
        };
        for g in &self.globals {
            add(&mut alloc, &g.ty);
        }
        let mut names: Vec<&String> = self.functions.keys().collect();
        names.sort();
        for name in &names {
            for instr in &self.functions[*name].body {
                match instr {
                    Instr::Alloca { ty, .. } => add(&mut alloc, ty),
                    Instr::CallBuiltin {
                        alloc_ty: Some(ty), ..
                    } => add(&mut alloc, ty),
                    _ => {}
                }
            }
        }
        for name in &names {
            for instr in &self.functions[*name].body {
                match instr {
                    Instr::TypeCheck { ty, .. } | Instr::CastCheck { ty, .. } => {
                        add(&mut checks, ty)
                    }
                    _ => {}
                }
            }
        }
        ReferencedTypes { alloc, checks }
    }
}

/// The types a program references, split by role (see
/// [`Program::referenced_types`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReferencedTypes {
    /// Allocation element types: globals, `Alloca`, allocation builtins.
    /// These can label memory and need layout tables.
    pub alloc: Vec<Type>,
    /// Static types of check instructions that never occur as allocation
    /// types: pure layout-table keys, interned but with no table of their
    /// own.
    pub checks: Vec<Type>,
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            writeln!(f, "global {} : {} ({} bytes)", g.name, g.ty, g.size)?;
        }
        let mut names: Vec<_> = self.functions.keys().collect();
        names.sort();
        for name in names {
            let func = &self.functions[name];
            write!(f, "fn {}(", func.name)?;
            for (i, p) in func.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {}", p.name, p.ty)?;
            }
            writeln!(f, ") -> {} {{", func.ret)?;
            for (i, instr) in func.body.iter().enumerate() {
                writeln!(f, "  {i:4}: {instr:?}")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_name_resolution() {
        assert_eq!(Builtin::from_name("malloc"), Some(Builtin::Malloc));
        assert_eq!(Builtin::from_name("xmalloc"), Some(Builtin::CmaAlloc));
        assert_eq!(Builtin::from_name("print_int"), Some(Builtin::PrintInt));
        assert_eq!(Builtin::from_name("not_a_builtin"), None);
        assert!(Builtin::Malloc.is_allocation());
        assert!(Builtin::CmaAlloc.is_allocation());
        assert!(!Builtin::Free.is_allocation());
    }

    #[test]
    fn instr_dst_and_classification() {
        let i = Instr::Const {
            dst: 3,
            value: Const::Int(1),
        };
        assert_eq!(i.dst(), Some(3));
        assert!(!i.is_check());
        assert!(!i.is_terminator());
        let t = Instr::TypeCheck {
            dst: 1,
            ptr: 0,
            ty: Type::int(),
            ty_id: TypeId::UNTYPED,
            loc: Arc::from("x"),
        };
        assert!(t.is_check());
        assert!(Instr::Return { value: None }.is_terminator());
        assert_eq!(Instr::Jump { target: 0 }.dst(), None);
    }

    #[test]
    fn referenced_types_are_deterministic_and_deduped() {
        let mut functions = HashMap::new();
        functions.insert(
            "b".to_string(),
            Arc::new(Function {
                name: "b".to_string(),
                params: vec![],
                ret: Type::void(),
                num_slots: 2,
                body: vec![
                    Instr::Alloca {
                        dst: 0,
                        ty: Type::int(),
                        count: 1,
                    },
                    Instr::TypeCheck {
                        dst: 1,
                        ptr: 0,
                        ty: Type::struct_("S"),
                        ty_id: TypeId::UNTYPED,
                        loc: Arc::from("b:1"),
                    },
                ],
            }),
        );
        functions.insert(
            "a".to_string(),
            Arc::new(Function {
                name: "a".to_string(),
                params: vec![],
                ret: Type::void(),
                num_slots: 2,
                body: vec![
                    Instr::Alloca {
                        dst: 0,
                        ty: Type::struct_("S"),
                        count: 1,
                    },
                    Instr::CastCheck {
                        dst: 1,
                        ptr: 0,
                        ty: Type::double(),
                        ty_id: TypeId::UNTYPED,
                        loc: Arc::from("a:1"),
                    },
                ],
            }),
        );
        let program = Program {
            registry: Arc::new(TypeRegistry::new()),
            globals: vec![Global {
                name: "g".to_string(),
                ty: Type::array(Type::float(), 4),
                size: 16,
                init: None,
            }],
            functions,
            source_lines: 0,
        };
        let tys = program.referenced_types();
        // Allocation types: globals first, then functions in sorted-name
        // order; no duplicates.
        assert_eq!(
            tys.alloc,
            vec![
                Type::array(Type::float(), 4),
                Type::struct_("S"),
                Type::int(),
            ]
        );
        // Check static types that also occur as allocation types stay in
        // the alloc list only; `double` is check-only.
        assert_eq!(tys.checks, vec![Type::double()]);
        // HashMap iteration order never leaks: repeated calls agree.
        assert_eq!(program.referenced_types(), tys);
    }

    #[test]
    fn function_slot_allocation_and_counts() {
        let mut f = Function {
            name: "f".to_string(),
            params: vec![],
            ret: Type::void(),
            num_slots: 2,
            body: vec![
                Instr::Const {
                    dst: 0,
                    value: Const::Int(0),
                },
                Instr::Return { value: None },
            ],
        };
        assert_eq!(f.new_slot(), 2);
        assert_eq!(f.num_slots, 3);
        assert_eq!(f.instruction_count(), 2);
        assert_eq!(f.check_count(), 0);
    }
}
