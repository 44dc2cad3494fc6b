//! Lowering from the AST to the typed IR.
//!
//! Lowering also performs the semantic analysis the instrumentation
//! depends on: name resolution, static typing of every pointer-producing
//! expression, array-to-pointer decay, implicit conversions, and the
//! *allocation type inference* of Example 1 (a `malloc` result takes the
//! type of its first lvalue usage — in practice the cast or the declared
//! type of the variable it initialises).
//!
//! Local variables whose address is never taken (and that are of scalar
//! type) live in virtual-register slots; address-taken locals, arrays and
//! record-typed locals are materialised with [`Instr::Alloca`] so they
//! become typed low-fat stack objects at runtime, mirroring how the low-fat
//! stack allocator only intercepts escaping objects.
//!
//! Each full expression (an expression statement, a condition, a `for`
//! step, a `return` value or an initialiser) is lowered in one of two
//! modes, chosen by one walk of its AST:
//!
//! * **direct**, when no assignment sits below the expression's root: a
//!   read of a register variable yields the variable's own slot, and a
//!   root assignment or initialiser of a register variable retargets the
//!   instruction that computed the value to write the variable, as an SSA
//!   compiler would;
//! * **copying**, when one does (`x + (x = 5)`, `a = b = c`): every read
//!   of a register variable is copied into a fresh temp and every
//!   assigned value is copied into its variable, so operands are read
//!   left to right before any later assignment can change them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use effective_types::{BaseDef, FieldDef, RecordDef, RecordKind, Type, TypeRegistry};

use crate::ast::{self, BinOp, Expr, RecordKeyword, Stmt, UnOp, Unit};
use crate::error::{CompileError, ErrorKind};
use crate::ir::{Builtin, CastKind, Const, Function, Global, Instr, Param, Program, Slot};
use crate::token::Loc;

/// Lower a parsed unit to a [`Program`].
pub fn lower(unit: &Unit, source_lines: usize) -> Result<Program, CompileError> {
    let registry = build_registry(unit)?;
    let registry = Arc::new(registry);

    let mut globals = Vec::new();
    for g in &unit.globals {
        let size = registry.size_of(&g.ty).map_err(|e| {
            CompileError::new(ErrorKind::Sema, format!("global `{}`: {e}", g.name), g.loc)
        })?;
        let init = match &g.init {
            Some(Expr::IntLit(v, _)) => Some(encode_scalar(&registry, &g.ty, *v as f64, *v)),
            Some(Expr::FloatLit(v, _)) => Some(encode_scalar(&registry, &g.ty, *v, *v as i64)),
            Some(Expr::Null(_)) | None => None,
            Some(other) => {
                return Err(CompileError::new(
                    ErrorKind::Sema,
                    format!("global `{}` has a non-constant initialiser", g.name),
                    other.loc(),
                ))
            }
        };
        globals.push(Global {
            name: g.name.clone(),
            ty: g.ty.clone(),
            size,
            init,
        });
    }

    // Function signatures, for call typing.
    let mut signatures: HashMap<String, (Vec<Type>, Type)> = HashMap::new();
    for f in &unit.functions {
        signatures.insert(
            f.name.clone(),
            (
                f.params.iter().map(|p| p.ty.clone()).collect(),
                f.ret.clone(),
            ),
        );
    }

    let mut functions = HashMap::new();
    let mut string_counter = 0usize;
    for f in &unit.functions {
        let lowered =
            FunctionLowerer::new(&registry, &signatures, &mut globals, &mut string_counter)
                .lower_function(f)?;
        functions.insert(f.name.clone(), Arc::new(lowered));
    }

    Ok(Program {
        registry,
        globals,
        functions,
        source_lines,
    })
}

fn encode_scalar(registry: &TypeRegistry, ty: &Type, fval: f64, ival: i64) -> Vec<u8> {
    let size = registry.size_of(ty).unwrap_or(8) as usize;
    if ty.is_float() {
        match size {
            4 => (fval as f32).to_le_bytes().to_vec(),
            _ => fval.to_le_bytes()[..size.min(8)].to_vec(),
        }
    } else {
        ival.to_le_bytes()[..size.min(8)].to_vec()
    }
}

fn build_registry(unit: &Unit) -> Result<TypeRegistry, CompileError> {
    let mut registry = TypeRegistry::new();
    for r in &unit.records {
        if r.fields.is_empty() && r.bases.is_empty() && !r.has_virtual {
            // Forward declaration only; skip unless never defined (a later
            // full definition will register it).
            let defined_later = unit
                .records
                .iter()
                .any(|other| other.name == r.name && !other.fields.is_empty());
            if defined_later {
                continue;
            }
        }
        let kind = match r.keyword {
            RecordKeyword::Struct => RecordKind::Struct,
            RecordKeyword::Class => RecordKind::Class,
            RecordKeyword::Union => RecordKind::Union,
        };
        let def = RecordDef {
            tag: r.name.clone(),
            kind,
            bases: r.bases.iter().map(BaseDef::new).collect(),
            fields: r
                .fields
                .iter()
                .map(|f| FieldDef::new(f.name.clone(), f.ty.clone()))
                .collect(),
            has_virtual_methods: r.has_virtual,
        };
        // Conflicting redefinitions are themselves one of the paper's
        // findings (gcc, §6.1); keep the latest definition.
        registry.define_or_replace(def).map_err(|e| {
            CompileError::new(ErrorKind::Sema, format!("record `{}`: {e}", r.name), r.loc)
        })?;
    }
    Ok(registry)
}

/// An lvalue: either a virtual-register variable or a memory location.
enum LValue {
    /// A register-allocated local variable.
    Reg(Slot, Type),
    /// A memory location: pointer slot + the type stored there.
    Mem(Slot, Type),
}

impl LValue {
    fn ty(&self) -> &Type {
        match self {
            LValue::Reg(_, ty) | LValue::Mem(_, ty) => ty,
        }
    }
}

#[derive(Clone)]
struct LocalVar {
    slot: Slot,
    ty: Type,
    /// The slot holds a *pointer* to the variable's storage.
    is_alloca: bool,
}

struct LoopContext {
    break_jumps: Vec<usize>,
    continue_jumps: Vec<usize>,
}

struct FunctionLowerer<'a> {
    registry: &'a Arc<TypeRegistry>,
    signatures: &'a HashMap<String, (Vec<Type>, Type)>,
    globals: &'a mut Vec<Global>,
    string_counter: &'a mut usize,
    global_types: HashMap<String, Type>,
    scopes: Vec<HashMap<String, LocalVar>>,
    body: Vec<Instr>,
    num_slots: usize,
    loops: Vec<LoopContext>,
    address_taken: HashSet<String>,
    fname: String,
    /// The current full expression is lowered in direct mode (see the
    /// module docs).
    direct: bool,
}

impl<'a> FunctionLowerer<'a> {
    fn new(
        registry: &'a Arc<TypeRegistry>,
        signatures: &'a HashMap<String, (Vec<Type>, Type)>,
        globals: &'a mut Vec<Global>,
        string_counter: &'a mut usize,
    ) -> Self {
        let global_types = globals
            .iter()
            .map(|g| (g.name.clone(), g.ty.clone()))
            .collect();
        FunctionLowerer {
            registry,
            signatures,
            globals,
            string_counter,
            global_types,
            scopes: Vec::new(),
            body: Vec::new(),
            num_slots: 0,
            loops: Vec::new(),
            address_taken: HashSet::new(),
            fname: String::new(),
            direct: false,
        }
    }

    fn err(&self, msg: impl Into<String>, loc: Loc) -> CompileError {
        CompileError::new(ErrorKind::Sema, msg, loc)
    }

    fn new_slot(&mut self) -> Slot {
        let s = self.num_slots as Slot;
        self.num_slots += 1;
        s
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.body.push(i);
        self.body.len() - 1
    }

    fn size_of(&self, ty: &Type, loc: Loc) -> Result<u64, CompileError> {
        self.registry
            .size_of(ty)
            .map_err(|e| self.err(format!("{e}"), loc))
    }

    // -----------------------------------------------------------------
    // Function
    // -----------------------------------------------------------------

    fn lower_function(mut self, f: &ast::FunctionDecl) -> Result<Function, CompileError> {
        self.fname = f.name.clone();
        collect_address_taken(&f.body, &mut self.address_taken);
        self.scopes.push(HashMap::new());

        let mut params = Vec::new();
        for p in &f.params {
            let slot = self.new_slot();
            params.push(Param {
                name: p.name.clone(),
                ty: p.ty.clone(),
                slot,
            });
            if self.address_taken.contains(&p.name) {
                // Spill the parameter to a stack object so its address can
                // be taken.
                let ptr = self.new_slot();
                self.emit(Instr::Alloca {
                    dst: ptr,
                    ty: p.ty.clone(),
                    count: 1,
                });
                self.emit(Instr::Store {
                    ptr,
                    src: slot,
                    ty: p.ty.clone(),
                });
                self.scopes.last_mut().expect("scope").insert(
                    p.name.clone(),
                    LocalVar {
                        slot: ptr,
                        ty: p.ty.clone(),
                        is_alloca: true,
                    },
                );
            } else {
                self.scopes.last_mut().expect("scope").insert(
                    p.name.clone(),
                    LocalVar {
                        slot,
                        ty: p.ty.clone(),
                        is_alloca: false,
                    },
                );
            }
        }

        for stmt in &f.body {
            self.lower_stmt(stmt)?;
        }
        // Implicit return.
        if !matches!(self.body.last(), Some(Instr::Return { .. })) {
            if f.ret.is_void() {
                self.emit(Instr::Return { value: None });
            } else {
                let zero = self.new_slot();
                self.emit(Instr::Const {
                    dst: zero,
                    value: Const::Int(0),
                });
                self.emit(Instr::Return { value: Some(zero) });
            }
        }

        Ok(Function {
            name: f.name.clone(),
            params,
            ret: f.ret.clone(),
            num_slots: self.num_slots,
            body: self.body,
        })
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                loc,
            } => self.lower_decl(name, ty, init.as_ref(), *loc),
            Stmt::Expr(e) => self.lower_discarded(e),
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                for s in stmts {
                    self.lower_stmt(s)?;
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let (c, _) = self.lower_full(cond, None)?;
                let branch_idx = self.emit(Instr::Branch {
                    cond: c,
                    then_target: 0,
                    else_target: 0,
                });
                let then_start = self.body.len();
                self.scopes.push(HashMap::new());
                for s in then_body {
                    self.lower_stmt(s)?;
                }
                self.scopes.pop();
                let jump_over_else = self.emit(Instr::Jump { target: 0 });
                let else_start = self.body.len();
                self.scopes.push(HashMap::new());
                for s in else_body {
                    self.lower_stmt(s)?;
                }
                self.scopes.pop();
                let end = self.body.len();
                self.patch_branch(branch_idx, then_start, else_start);
                self.patch_jump(jump_over_else, end);
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let cond_start = self.body.len();
                let (c, _) = self.lower_full(cond, None)?;
                let branch_idx = self.emit(Instr::Branch {
                    cond: c,
                    then_target: 0,
                    else_target: 0,
                });
                let body_start = self.body.len();
                self.loops.push(LoopContext {
                    break_jumps: Vec::new(),
                    continue_jumps: Vec::new(),
                });
                self.scopes.push(HashMap::new());
                for s in body {
                    self.lower_stmt(s)?;
                }
                self.scopes.pop();
                self.emit(Instr::Jump { target: cond_start });
                let end = self.body.len();
                self.patch_branch(branch_idx, body_start, end);
                let ctx = self.loops.pop().expect("loop context");
                for j in ctx.break_jumps {
                    self.patch_jump(j, end);
                }
                for j in ctx.continue_jumps {
                    self.patch_jump(j, cond_start);
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_stmt(init)?;
                }
                let cond_start = self.body.len();
                let branch_idx = match cond {
                    Some(c) => {
                        let (c, _) = self.lower_full(c, None)?;
                        Some(self.emit(Instr::Branch {
                            cond: c,
                            then_target: 0,
                            else_target: 0,
                        }))
                    }
                    None => None,
                };
                let body_start = self.body.len();
                self.loops.push(LoopContext {
                    break_jumps: Vec::new(),
                    continue_jumps: Vec::new(),
                });
                self.scopes.push(HashMap::new());
                for s in body {
                    self.lower_stmt(s)?;
                }
                self.scopes.pop();
                let step_start = self.body.len();
                if let Some(step) = step {
                    self.lower_discarded(step)?;
                }
                self.emit(Instr::Jump { target: cond_start });
                let end = self.body.len();
                if let Some(b) = branch_idx {
                    self.patch_branch(b, body_start, end);
                }
                let ctx = self.loops.pop().expect("loop context");
                for j in ctx.break_jumps {
                    self.patch_jump(j, end);
                }
                for j in ctx.continue_jumps {
                    self.patch_jump(j, step_start);
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(value, _) => {
                let value = match value {
                    Some(e) => {
                        let (s, ty) = self.lower_full(e, None)?;
                        if ty.is_pointer() && self.is_register_variable(s) {
                            // The instrumentation bounds-checks a returned
                            // pointer only if its slot already has bounds
                            // at this point of the body; a fresh copy always
                            // does, a variable may get them only further on.
                            let copy = self.new_slot();
                            self.emit(Instr::Copy { dst: copy, src: s });
                            Some(copy)
                        } else {
                            Some(s)
                        }
                    }
                    None => None,
                };
                self.emit(Instr::Return { value });
                Ok(())
            }
            Stmt::Break(loc) => {
                let j = self.emit(Instr::Jump { target: 0 });
                match self.loops.last_mut() {
                    Some(ctx) => {
                        ctx.break_jumps.push(j);
                        Ok(())
                    }
                    None => Err(self.err("`break` outside a loop", *loc)),
                }
            }
            Stmt::Continue(loc) => {
                let j = self.emit(Instr::Jump { target: 0 });
                match self.loops.last_mut() {
                    Some(ctx) => {
                        ctx.continue_jumps.push(j);
                        Ok(())
                    }
                    None => Err(self.err("`continue` outside a loop", *loc)),
                }
            }
        }
    }

    fn lower_decl(
        &mut self,
        name: &str,
        ty: &Type,
        init: Option<&Expr>,
        loc: Loc,
    ) -> Result<(), CompileError> {
        let needs_alloca = self.address_taken.contains(name) || ty.is_array() || ty.is_record();
        if needs_alloca {
            let (elem_ty, count) = match ty {
                Type::Array(e, n) => (e.as_ref().clone(), *n),
                other => (other.clone(), 1),
            };
            let ptr = self.new_slot();
            self.emit(Instr::Alloca {
                dst: ptr,
                ty: elem_ty,
                count,
            });
            self.scopes.last_mut().expect("scope").insert(
                name.to_string(),
                LocalVar {
                    slot: ptr,
                    ty: ty.clone(),
                    is_alloca: true,
                },
            );
            if let Some(init) = init {
                if ty.is_array() || ty.is_record() {
                    return Err(self.err(
                        format!("aggregate initialisers are not supported (variable `{name}`)"),
                        loc,
                    ));
                }
                let (v, vty) = self.lower_full(init, Some(ty))?;
                let v = self.coerce(v, &vty, ty, loc)?;
                self.emit(Instr::Store {
                    ptr,
                    src: v,
                    ty: ty.clone(),
                });
            }
        } else {
            let slot = self.new_slot();
            self.scopes.last_mut().expect("scope").insert(
                name.to_string(),
                LocalVar {
                    slot,
                    ty: ty.clone(),
                    is_alloca: false,
                },
            );
            if let Some(init) = init {
                let init_start = self.num_slots;
                let (v, vty) = self.lower_full(init, Some(ty))?;
                let v = self.coerce(v, &vty, ty, loc)?;
                self.write_reg(slot, v, init_start);
            } else {
                self.emit(Instr::Const {
                    dst: slot,
                    value: Const::Int(0),
                });
            }
        }
        Ok(())
    }

    fn patch_branch(&mut self, idx: usize, then_target: usize, else_target: usize) {
        if let Instr::Branch {
            then_target: t,
            else_target: e,
            ..
        } = &mut self.body[idx]
        {
            *t = then_target;
            *e = else_target;
        }
    }

    fn patch_jump(&mut self, idx: usize, target: usize) {
        if let Instr::Jump { target: t } = &mut self.body[idx] {
            *t = target;
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn lookup(&self, name: &str) -> Option<LocalVar> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    /// Whether `slot` is the own slot of a register variable in scope.
    fn is_register_variable(&self, slot: Slot) -> bool {
        self.scopes
            .iter()
            .flat_map(HashMap::values)
            .any(|v| v.slot == slot && !v.is_alloca)
    }

    /// Lower a full expression, choosing its mode first (see the module
    /// docs).  The mode holds until the next full expression, so an
    /// initialiser's write to its variable is made in the same mode.
    fn lower_full(
        &mut self,
        e: &Expr,
        expected: Option<&Type>,
    ) -> Result<(Slot, Type), CompileError> {
        self.direct = !assigns_below_root(e);
        self.lower_expr_expect(e, expected)
    }

    /// Lower a full expression whose value is discarded (an expression
    /// statement or a `for` step), where a postfix `++`/`--` is the prefix
    /// form.
    fn lower_discarded(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Increment {
                op, target, loc, ..
            } => {
                self.direct = !assigns_below_root(e);
                self.lower_increment(*op, target, false, *loc)?
            }
            other => self.lower_full(other, None)?,
        };
        Ok(())
    }

    /// Write `v: vty`, computed by instructions that allocated slots from
    /// `rhs_start` on, to `lv`, converting it to the lvalue's type;
    /// returns the slot holding the assigned value and that type.
    fn assign(
        &mut self,
        lv: LValue,
        v: Slot,
        vty: &Type,
        rhs_start: usize,
        loc: Loc,
    ) -> Result<(Slot, Type), CompileError> {
        let v = self.coerce(v, vty, lv.ty(), loc)?;
        Ok(match lv {
            LValue::Reg(var, ty) => (self.write_reg(var, v, rhs_start), ty),
            LValue::Mem(ptr, ty) => {
                self.emit(Instr::Store {
                    ptr,
                    src: v,
                    ty: ty.clone(),
                });
                (v, ty)
            }
        })
    }

    /// `target ± 1`, written back to `target`.  The prefix form is the
    /// assignment `target = target ± 1`: it reads `target` again and
    /// yields the new value.  The postfix form reads the old value
    /// through the lvalue (a `Copy` of a register, a `Load` from memory)
    /// and yields that.
    fn lower_increment(
        &mut self,
        op: BinOp,
        target: &Expr,
        postfix: bool,
        loc: Loc,
    ) -> Result<(Slot, Type), CompileError> {
        let lv = self.lower_lvalue(target)?;
        let rhs_start = self.num_slots;
        let (old, ty) = if postfix {
            let old = self.new_slot();
            self.emit(match &lv {
                LValue::Reg(var, _) => Instr::Copy {
                    dst: old,
                    src: *var,
                },
                LValue::Mem(ptr, ty) => Instr::Load {
                    dst: old,
                    ptr: *ptr,
                    ty: ty.clone(),
                },
            });
            (old, lv.ty().clone())
        } else {
            self.lower_expr(target)?
        };
        let one = self.new_slot();
        self.emit(Instr::Const {
            dst: one,
            value: Const::Int(1),
        });
        let (new, new_ty) = self.emit_binary(op, old, ty, one, Type::int(), loc)?;
        let (new, ty) = self.assign(lv, new, &new_ty, rhs_start, loc)?;
        Ok((if postfix { old } else { new }, ty))
    }

    /// Write `v` to the register variable `var`, where `rhs_start` was the
    /// first free slot before the right-hand side was lowered; returns the
    /// slot holding the assigned value.  In direct mode the last emitted
    /// instruction is retargeted to write `var` when it computed `v` into
    /// a temp of this right-hand side and is not a `Copy` (a `?:` result is
    /// written on two paths).  Otherwise — copying mode, or `v` is a
    /// variable's own slot, a decayed array or `&x` — `var` gets a `Copy`.
    fn write_reg(&mut self, var: Slot, v: Slot, rhs_start: usize) -> Slot {
        if self.direct && v as usize >= rhs_start {
            if let Some(dst) = self
                .body
                .last_mut()
                .filter(|last| !matches!(last, Instr::Copy { .. }))
                .and_then(Instr::dst_mut)
                .filter(|dst| **dst == v)
            {
                *dst = var;
                // Nothing reads or writes the retargeted temp any more;
                // give its slot back when it is the newest.
                if v as usize + 1 == self.num_slots {
                    self.num_slots -= 1;
                }
                return var;
            }
        }
        self.emit(Instr::Copy { dst: var, src: v });
        v
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<(Slot, Type), CompileError> {
        self.lower_expr_expect(e, None)
    }

    /// Lower an expression; `expected` propagates the declared/assigned type
    /// into allocation calls for the malloc-type inference of Example 1.
    fn lower_expr_expect(
        &mut self,
        e: &Expr,
        expected: Option<&Type>,
    ) -> Result<(Slot, Type), CompileError> {
        match e {
            Expr::IntLit(v, _) => {
                let dst = self.new_slot();
                self.emit(Instr::Const {
                    dst,
                    value: Const::Int(*v),
                });
                Ok((dst, Type::int()))
            }
            Expr::FloatLit(v, _) => {
                let dst = self.new_slot();
                self.emit(Instr::Const {
                    dst,
                    value: Const::Float(*v),
                });
                Ok((dst, Type::double()))
            }
            Expr::Null(_) => {
                let dst = self.new_slot();
                self.emit(Instr::Const {
                    dst,
                    value: Const::Null,
                });
                Ok((dst, Type::void_ptr()))
            }
            Expr::StrLit(s, _) => {
                let name = format!("__str{}", *self.string_counter);
                *self.string_counter += 1;
                let mut bytes = s.as_bytes().to_vec();
                bytes.push(0);
                let len = bytes.len() as u64;
                self.globals.push(Global {
                    name: name.clone(),
                    ty: Type::array(Type::char_(), len),
                    size: len,
                    init: Some(bytes),
                });
                self.global_types
                    .insert(name.clone(), Type::array(Type::char_(), len));
                let dst = self.new_slot();
                self.emit(Instr::GlobalAddr { dst, name });
                Ok((dst, Type::char_ptr()))
            }
            Expr::SizeOf(ty, loc) => {
                let size = self.size_of(ty, *loc)?;
                let dst = self.new_slot();
                self.emit(Instr::Const {
                    dst,
                    value: Const::Int(size as i64),
                });
                Ok((dst, Type::long()))
            }
            Expr::Var(..) | Expr::Index { .. } | Expr::Member { .. } | Expr::Deref(..) => {
                let lv = self.lower_lvalue(e)?;
                match lv {
                    LValue::Reg(slot, ty) if self.direct => Ok((slot, ty)),
                    LValue::Reg(slot, ty) => {
                        let dst = self.new_slot();
                        self.emit(Instr::Copy { dst, src: slot });
                        Ok((dst, ty))
                    }
                    LValue::Mem(ptr, ty) => {
                        if ty.is_array() {
                            // Array-to-pointer decay: the address itself.
                            Ok((ptr, ty.decay()))
                        } else if ty.is_record() {
                            // Record rvalues are represented by their
                            // address (passing structs by value is not
                            // supported; member access goes through the
                            // lvalue path anyway).
                            Ok((ptr, Type::ptr(ty)))
                        } else {
                            let dst = self.new_slot();
                            self.emit(Instr::Load {
                                dst,
                                ptr,
                                ty: ty.clone(),
                            });
                            Ok((dst, ty))
                        }
                    }
                }
            }
            Expr::AddrOf(inner, loc) => {
                let lv = self.lower_lvalue(inner)?;
                match lv {
                    LValue::Mem(ptr, ty) => Ok((ptr, Type::ptr(ty))),
                    LValue::Reg(..) => Err(self.err(
                        "cannot take the address of a register variable (internal)",
                        *loc,
                    )),
                }
            }
            Expr::Unary { op, operand, loc } => {
                let (s, ty) = self.lower_expr(operand)?;
                let dst = self.new_slot();
                let float = ty.is_float() && *op == UnOp::Neg;
                let _ = loc;
                self.emit(Instr::Un {
                    dst,
                    op: *op,
                    src: s,
                    float,
                });
                let rty = match op {
                    UnOp::Not => Type::int(),
                    _ => ty,
                };
                Ok((dst, rty))
            }
            Expr::Binary { op, lhs, rhs, loc } => self.lower_binary(*op, lhs, rhs, *loc),
            Expr::Assign { lhs, rhs, loc } => {
                let lv = self.lower_lvalue(lhs)?;
                let rhs_start = self.num_slots;
                let (v, vty) = self.lower_expr_expect(rhs, Some(lv.ty()))?;
                self.assign(lv, v, &vty, rhs_start, *loc)
            }
            Expr::Increment {
                op,
                target,
                postfix,
                loc,
            } => self.lower_increment(*op, target, *postfix, *loc),
            Expr::Cast {
                ty,
                style: _,
                expr,
                loc,
            } => {
                let expect = ty.pointee().cloned();
                let (s, from_ty) = self.lower_expr_expect(expr, expect.as_ref())?;
                // C constraint: cast operands must be scalar (a record
                // rvalue cannot be cast to a pointer or arithmetic type,
                // and nothing can be cast to a record by value).
                if !ty.is_void() && (from_ty.is_record() || ty.is_record()) {
                    return Err(self.err(
                        format!("invalid cast from `{from_ty}` to `{ty}`: operands must be scalar"),
                        *loc,
                    ));
                }
                let kind = cast_kind(&from_ty, ty);
                let dst = self.new_slot();
                self.emit(Instr::Cast {
                    dst,
                    src: s,
                    kind,
                    from_ty,
                    to_ty: ty.clone(),
                    // Every source-written cast (including dynamic_cast) is
                    // an explicit cast site for the -type variant.
                    explicit: true,
                });
                let _ = loc;
                Ok((dst, ty.clone()))
            }
            Expr::New { ty, count, loc } => {
                let elem_size = self.size_of(ty, *loc)?;
                let size_slot = match count {
                    Some(c) => {
                        let (n, _) = self.lower_expr(c)?;
                        let sz = self.new_slot();
                        self.emit(Instr::Const {
                            dst: sz,
                            value: Const::Int(elem_size as i64),
                        });
                        let total = self.new_slot();
                        self.emit(Instr::Bin {
                            dst: total,
                            op: BinOp::Mul,
                            lhs: n,
                            rhs: sz,
                            float: false,
                        });
                        total
                    }
                    None => {
                        let sz = self.new_slot();
                        self.emit(Instr::Const {
                            dst: sz,
                            value: Const::Int(elem_size as i64),
                        });
                        sz
                    }
                };
                let dst = self.new_slot();
                self.emit(Instr::CallBuiltin {
                    dst: Some(dst),
                    builtin: Builtin::New,
                    args: vec![size_slot],
                    alloc_ty: Some(ty.clone()),
                    ret_ty: Type::ptr(ty.clone()),
                });
                Ok((dst, Type::ptr(ty.clone())))
            }
            Expr::Delete { expr, .. } => {
                let (p, _) = self.lower_expr(expr)?;
                self.emit(Instr::CallBuiltin {
                    dst: None,
                    builtin: Builtin::Delete,
                    args: vec![p],
                    alloc_ty: None,
                    ret_ty: Type::void(),
                });
                let dst = self.new_slot();
                self.emit(Instr::Const {
                    dst,
                    value: Const::Int(0),
                });
                Ok((dst, Type::int()))
            }
            Expr::Conditional {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let (c, _) = self.lower_expr(cond)?;
                let result = self.new_slot();
                let branch = self.emit(Instr::Branch {
                    cond: c,
                    then_target: 0,
                    else_target: 0,
                });
                let then_start = self.body.len();
                let (tv, tty) = self.lower_expr(then_expr)?;
                self.emit(Instr::Copy {
                    dst: result,
                    src: tv,
                });
                let jump_end = self.emit(Instr::Jump { target: 0 });
                let else_start = self.body.len();
                let (ev, _ety) = self.lower_expr(else_expr)?;
                self.emit(Instr::Copy {
                    dst: result,
                    src: ev,
                });
                let end = self.body.len();
                self.patch_branch(branch, then_start, else_start);
                self.patch_jump(jump_end, end);
                Ok((result, tty))
            }
            Expr::Call { callee, args, loc } => self.lower_call(callee, args, *loc, expected),
        }
    }

    fn lower_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        loc: Loc,
    ) -> Result<(Slot, Type), CompileError> {
        // Short-circuit logical operators become control flow.
        if matches!(op, BinOp::LogicalAnd | BinOp::LogicalOr) {
            let result = self.new_slot();
            let (l, _) = self.lower_expr(lhs)?;
            self.emit(Instr::Copy {
                dst: result,
                src: l,
            });
            let branch = self.emit(Instr::Branch {
                cond: l,
                then_target: 0,
                else_target: 0,
            });
            let rhs_start = self.body.len();
            let (r, _) = self.lower_expr(rhs)?;
            self.emit(Instr::Copy {
                dst: result,
                src: r,
            });
            let end = self.body.len();
            match op {
                BinOp::LogicalAnd => self.patch_branch(branch, rhs_start, end),
                _ => self.patch_branch(branch, end, rhs_start),
            }
            // Normalise to 0/1.
            let zero = self.new_slot();
            self.emit(Instr::Const {
                dst: zero,
                value: Const::Int(0),
            });
            let norm = self.new_slot();
            self.emit(Instr::Bin {
                dst: norm,
                op: BinOp::Ne,
                lhs: result,
                rhs: zero,
                float: false,
            });
            return Ok((norm, Type::int()));
        }

        let (l, lty) = self.lower_expr(lhs)?;
        let (r, rty) = self.lower_expr(rhs)?;
        self.emit_binary(op, l, lty, r, rty, loc)
    }

    /// Emit the arithmetic, comparison or bitwise operation `op` on the
    /// already-lowered operands `l: lty` and `r: rty`.
    fn emit_binary(
        &mut self,
        op: BinOp,
        l: Slot,
        lty: Type,
        r: Slot,
        rty: Type,
        loc: Loc,
    ) -> Result<(Slot, Type), CompileError> {
        // Pointer arithmetic: p + i, p - i, p[i] is handled elsewhere.
        if lty.is_pointer() && rty.is_integer() && matches!(op, BinOp::Add | BinOp::Sub) {
            let elem_ty = lty.pointee().cloned().unwrap_or_else(Type::char_);
            let elem_size = self.size_of(&elem_ty, loc).unwrap_or(1);
            let index = if op == BinOp::Sub {
                let neg = self.new_slot();
                self.emit(Instr::Un {
                    dst: neg,
                    op: UnOp::Neg,
                    src: r,
                    float: false,
                });
                neg
            } else {
                r
            };
            let dst = self.new_slot();
            self.emit(Instr::PtrAdd {
                dst,
                base: l,
                index,
                elem_size,
                elem_ty,
            });
            return Ok((dst, lty));
        }
        // Pointer difference.
        if lty.is_pointer() && rty.is_pointer() && op == BinOp::Sub {
            let raw = self.new_slot();
            self.emit(Instr::Bin {
                dst: raw,
                op: BinOp::Sub,
                lhs: l,
                rhs: r,
                float: false,
            });
            let elem_ty = lty.pointee().cloned().unwrap_or_else(Type::char_);
            let elem_size = self.size_of(&elem_ty, loc).unwrap_or(1).max(1);
            let sz = self.new_slot();
            self.emit(Instr::Const {
                dst: sz,
                value: Const::Int(elem_size as i64),
            });
            let dst = self.new_slot();
            self.emit(Instr::Bin {
                dst,
                op: BinOp::Div,
                lhs: raw,
                rhs: sz,
                float: false,
            });
            return Ok((dst, Type::long()));
        }

        // Numeric operands: promote to float if either side is float.
        let float = lty.is_float() || rty.is_float();
        // Bitwise and shift operators are integer-only in C; the VM has no
        // float evaluation for them, so reject here instead of letting the
        // interpreter silently produce 0.
        if float
            && matches!(
                op,
                BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor
            )
        {
            return Err(self.err(
                format!("invalid operands to `{op:?}`: bitwise and shift operators require integer operands"),
                loc,
            ));
        }
        let (l, r) = if float {
            let l = if lty.is_float() {
                l
            } else {
                self.emit_numeric_cast(l, &lty, &Type::double())
            };
            let r = if rty.is_float() {
                r
            } else {
                self.emit_numeric_cast(r, &rty, &Type::double())
            };
            (l, r)
        } else {
            (l, r)
        };
        let dst = self.new_slot();
        self.emit(Instr::Bin {
            dst,
            op,
            lhs: l,
            rhs: r,
            float,
        });
        let rty = match op {
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => Type::int(),
            _ if float => Type::double(),
            _ if lty.is_pointer() => lty,
            _ => Type::int(),
        };
        Ok((dst, rty))
    }

    fn emit_numeric_cast(&mut self, src: Slot, from: &Type, to: &Type) -> Slot {
        let dst = self.new_slot();
        self.emit(Instr::Cast {
            dst,
            src,
            kind: CastKind::Numeric,
            from_ty: from.clone(),
            to_ty: to.clone(),
            explicit: false,
        });
        dst
    }

    /// Implicit conversion of `slot` from `from` to `to`.
    fn coerce(
        &mut self,
        slot: Slot,
        from: &Type,
        to: &Type,
        _loc: Loc,
    ) -> Result<Slot, CompileError> {
        if from == to {
            return Ok(slot);
        }
        if from.is_float() != to.is_float()
            && to.is_scalar()
            && from.is_scalar()
            && !to.is_pointer()
        {
            return Ok(self.emit_numeric_cast(slot, from, to));
        }
        if to.is_pointer() && from.is_integer() {
            let dst = self.new_slot();
            self.emit(Instr::Cast {
                dst,
                src: slot,
                kind: CastKind::IntToPtr,
                from_ty: from.clone(),
                to_ty: to.clone(),
                explicit: false,
            });
            return Ok(dst);
        }
        if to.is_pointer() && from.is_pointer() {
            // Implicit pointer conversion (e.g. void* → T*, derived → base):
            // an implicit bit cast; EffectiveSan checks the *use*, not the
            // conversion.
            let dst = self.new_slot();
            self.emit(Instr::Cast {
                dst,
                src: slot,
                kind: CastKind::Bit,
                from_ty: from.clone(),
                to_ty: to.clone(),
                explicit: false,
            });
            return Ok(dst);
        }
        // Anything else: pass through (integer width changes etc.).
        Ok(slot)
    }

    fn lower_call(
        &mut self,
        callee: &str,
        args: &[Expr],
        loc: Loc,
        expected: Option<&Type>,
    ) -> Result<(Slot, Type), CompileError> {
        if let Some(builtin) = Builtin::from_name(callee) {
            let mut arg_slots = Vec::new();
            for a in args {
                let (s, _) = self.lower_expr(a)?;
                arg_slots.push(s);
            }
            let alloc_ty = if builtin.is_allocation() {
                // Example 1's allocation-type inference: the expectation is
                // either the cast target's pointee (already an element type)
                // or the declared pointer type of the receiving lvalue.
                let inferred = expected
                    .map(|t| t.pointee().cloned().unwrap_or_else(|| t.clone()))
                    .unwrap_or_else(Type::char_);
                Some(if inferred.is_void() {
                    Type::char_()
                } else {
                    inferred
                })
            } else {
                None
            };
            let ret_ty = match builtin {
                Builtin::Malloc | Builtin::Calloc | Builtin::Realloc | Builtin::CmaAlloc => {
                    Type::ptr(alloc_ty.clone().unwrap_or_else(Type::char_))
                }
                Builtin::Memcpy | Builtin::Memmove | Builtin::Memset => Type::void_ptr(),
                Builtin::Strlen | Builtin::Rand => Type::long(),
                _ => Type::void(),
            };
            let dst = if ret_ty.is_void() {
                None
            } else {
                Some(self.new_slot())
            };
            self.emit(Instr::CallBuiltin {
                dst,
                builtin,
                args: arg_slots,
                alloc_ty,
                ret_ty: ret_ty.clone(),
            });
            let result = match dst {
                Some(d) => d,
                None => {
                    let d = self.new_slot();
                    self.emit(Instr::Const {
                        dst: d,
                        value: Const::Int(0),
                    });
                    d
                }
            };
            return Ok((result, ret_ty));
        }

        let (param_tys, ret_ty) = self
            .signatures
            .get(callee)
            .cloned()
            .ok_or_else(|| self.err(format!("call to undefined function `{callee}`"), loc))?;
        if param_tys.len() != args.len() {
            return Err(self.err(
                format!(
                    "`{callee}` expects {} argument(s), {} given",
                    param_tys.len(),
                    args.len()
                ),
                loc,
            ));
        }
        let mut arg_slots = Vec::new();
        let mut arg_tys = Vec::new();
        for (a, pty) in args.iter().zip(&param_tys) {
            let (s, aty) = self.lower_expr_expect(a, Some(pty))?;
            let s = self.coerce(s, &aty, pty, loc)?;
            arg_slots.push(s);
            arg_tys.push(pty.clone());
        }
        let dst = if ret_ty.is_void() {
            None
        } else {
            Some(self.new_slot())
        };
        self.emit(Instr::Call {
            dst,
            callee: callee.to_string(),
            args: arg_slots,
            arg_tys,
            ret_ty: ret_ty.clone(),
        });
        let result = match dst {
            Some(d) => d,
            None => {
                let d = self.new_slot();
                self.emit(Instr::Const {
                    dst: d,
                    value: Const::Int(0),
                });
                d
            }
        };
        Ok((result, ret_ty))
    }

    // -----------------------------------------------------------------
    // Lvalues
    // -----------------------------------------------------------------

    fn lower_lvalue(&mut self, e: &Expr) -> Result<LValue, CompileError> {
        match e {
            Expr::Var(name, loc) => {
                if let Some(var) = self.lookup(name) {
                    if var.is_alloca {
                        Ok(LValue::Mem(var.slot, var.ty))
                    } else {
                        Ok(LValue::Reg(var.slot, var.ty))
                    }
                } else if let Some(gty) = self.global_types.get(name).cloned() {
                    let dst = self.new_slot();
                    self.emit(Instr::GlobalAddr {
                        dst,
                        name: name.clone(),
                    });
                    Ok(LValue::Mem(dst, gty))
                } else {
                    Err(self.err(format!("unknown variable `{name}`"), *loc))
                }
            }
            Expr::Deref(inner, loc) => {
                let (p, ty) = self.lower_expr(inner)?;
                let pointee = ty
                    .pointee()
                    .cloned()
                    .ok_or_else(|| self.err("cannot dereference a non-pointer", *loc))?;
                Ok(LValue::Mem(p, pointee))
            }
            Expr::Index { base, index, loc } => {
                let (b, bty) = self.lower_expr(base)?;
                let elem_ty = match &bty {
                    Type::Pointer(p) => p.as_ref().clone(),
                    Type::Array(e, _) | Type::IncompleteArray(e) => e.as_ref().clone(),
                    other => {
                        return Err(
                            self.err(format!("cannot index a value of type `{other}`"), *loc)
                        )
                    }
                };
                let (i, _ity) = self.lower_expr(index)?;
                let elem_size = self.size_of(&elem_ty, *loc)?;
                let dst = self.new_slot();
                self.emit(Instr::PtrAdd {
                    dst,
                    base: b,
                    index: i,
                    elem_size,
                    elem_ty: elem_ty.clone(),
                });
                Ok(LValue::Mem(dst, elem_ty))
            }
            Expr::Member {
                base,
                field,
                arrow,
                loc,
            } => {
                let (base_ptr, record_ty) = if *arrow {
                    let (p, ty) = self.lower_expr(base)?;
                    let pointee = ty
                        .pointee()
                        .cloned()
                        .ok_or_else(|| self.err("`->` applied to a non-pointer", *loc))?;
                    (p, pointee)
                } else {
                    match self.lower_lvalue(base)? {
                        LValue::Mem(p, ty) => (p, ty),
                        LValue::Reg(_, ty) => {
                            return Err(self.err(
                                format!("cannot access member of register value of type `{ty}`"),
                                *loc,
                            ))
                        }
                    }
                };
                let tag = record_ty.record_tag().ok_or_else(|| {
                    self.err(
                        format!("member access on non-record type `{record_ty}`"),
                        *loc,
                    )
                })?;
                let (offset, field_ty) = self.resolve_field(tag, field, *loc)?;
                let field_size = self.size_of(&field_ty, *loc)?;
                let dst = self.new_slot();
                self.emit(Instr::FieldAddr {
                    dst,
                    base: base_ptr,
                    record: record_ty.clone(),
                    field: field.clone(),
                    offset,
                    field_ty: field_ty.clone(),
                    field_size,
                });
                Ok(LValue::Mem(dst, field_ty))
            }
            other => Err(self.err("expression is not an lvalue", other.loc())),
        }
    }

    /// Resolve a field by name, searching base classes (fields of embedded
    /// bases are accessible through the derived class, as in C++).
    fn resolve_field(&self, tag: &str, field: &str, loc: Loc) -> Result<(u64, Type), CompileError> {
        let layout = self
            .registry
            .layout(tag)
            .map_err(|e| self.err(format!("{e}"), loc))?;
        if let Some(m) = layout.member(field) {
            return Ok((m.offset, m.ty.clone()));
        }
        // Search embedded bases recursively.
        for base in layout.bases() {
            if let Some(base_tag) = base.ty.record_tag() {
                if let Ok((off, ty)) = self.resolve_field(base_tag, field, loc) {
                    return Ok((base.offset + off, ty));
                }
            }
        }
        Err(self.err(format!("record `{tag}` has no member named `{field}`"), loc))
    }
}

fn cast_kind(from: &Type, to: &Type) -> CastKind {
    match (from.is_pointer(), to.is_pointer()) {
        (true, true) => CastKind::Bit,
        (true, false) => CastKind::PtrToInt,
        (false, true) => CastKind::IntToPtr,
        (false, false) => CastKind::Numeric,
    }
}

/// Whether an assignment sits below `e`'s root: `e` is lowered in copying
/// mode if so, in direct mode if not (see the module docs).
fn assigns_below_root(e: &Expr) -> bool {
    match e {
        Expr::Assign { lhs, rhs, .. } => has_assign(lhs) || has_assign(rhs),
        Expr::Increment { target, .. } => has_assign(target),
        other => has_assign(other),
    }
}

/// Whether `e` is or contains an assignment; `++` and `--` count.
fn has_assign(e: &Expr) -> bool {
    match e {
        Expr::Assign { .. } | Expr::Increment { .. } => true,
        Expr::IntLit(..)
        | Expr::FloatLit(..)
        | Expr::StrLit(..)
        | Expr::Null(..)
        | Expr::Var(..)
        | Expr::SizeOf(..)
        | Expr::New { count: None, .. } => false,
        Expr::Binary { lhs, rhs, .. } => has_assign(lhs) || has_assign(rhs),
        Expr::Index { base, index, .. } => has_assign(base) || has_assign(index),
        Expr::Unary { operand: inner, .. }
        | Expr::Member { base: inner, .. }
        | Expr::Deref(inner, _)
        | Expr::AddrOf(inner, _)
        | Expr::Cast { expr: inner, .. }
        | Expr::New {
            count: Some(inner), ..
        }
        | Expr::Delete { expr: inner, .. } => has_assign(inner),
        Expr::Call { args, .. } => args.iter().any(has_assign),
        Expr::Conditional {
            cond,
            then_expr,
            else_expr,
            ..
        } => has_assign(cond) || has_assign(then_expr) || has_assign(else_expr),
    }
}

/// Collect the names of local variables whose address is taken with `&`.
fn collect_address_taken(stmts: &[Stmt], out: &mut HashSet<String>) {
    fn walk_expr(e: &Expr, out: &mut HashSet<String>) {
        match e {
            Expr::AddrOf(inner, _) => {
                if let Expr::Var(name, _) = inner.as_ref() {
                    out.insert(name.clone());
                }
                walk_expr(inner, out);
            }
            Expr::Unary { operand, .. } => walk_expr(operand, out),
            Expr::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, out);
                walk_expr(rhs, out);
            }
            Expr::Assign { lhs, rhs, .. } => {
                walk_expr(lhs, out);
                walk_expr(rhs, out);
            }
            Expr::Increment { target, .. } => walk_expr(target, out),
            Expr::Index { base, index, .. } => {
                walk_expr(base, out);
                walk_expr(index, out);
            }
            Expr::Member { base, .. } => walk_expr(base, out),
            Expr::Deref(inner, _) => walk_expr(inner, out),
            Expr::Cast { expr, .. } => walk_expr(expr, out),
            Expr::Call { args, .. } => {
                for a in args {
                    walk_expr(a, out);
                }
            }
            Expr::New { count: Some(c), .. } => walk_expr(c, out),
            Expr::Delete { expr, .. } => walk_expr(expr, out),
            Expr::Conditional {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                walk_expr(cond, out);
                walk_expr(then_expr, out);
                walk_expr(else_expr, out);
            }
            _ => {}
        }
    }
    for s in stmts {
        match s {
            Stmt::Decl { init: Some(e), .. } => walk_expr(e, out),
            Stmt::Expr(e) => walk_expr(e, out),
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                walk_expr(cond, out);
                collect_address_taken(then_body, out);
                collect_address_taken(else_body, out);
            }
            Stmt::While { cond, body, .. } => {
                walk_expr(cond, out);
                collect_address_taken(body, out);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(i) = init {
                    collect_address_taken(std::slice::from_ref(i), out);
                }
                if let Some(c) = cond {
                    walk_expr(c, out);
                }
                if let Some(st) = step {
                    walk_expr(st, out);
                }
                collect_address_taken(body, out);
            }
            Stmt::Return(Some(e), _) => walk_expr(e, out),
            Stmt::Block(body) => collect_address_taken(body, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str) -> Program {
        let unit = parse(src).unwrap();
        lower(&unit, src.lines().count()).unwrap()
    }

    #[test]
    fn lower_sum_function() {
        let p = compile(
            "int sum(int *a, int len) {
                 int s = 0;
                 for (int i = 0; i < len; i++) { s += a[i]; }
                 return s;
             }",
        );
        let f = p.function("sum").unwrap();
        assert_eq!(f.params.len(), 2);
        // The array access produces a PtrAdd followed by a Load of int.
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::PtrAdd { elem_size: 4, .. })));
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::Load { ty, .. } if *ty == Type::int())));
        // No allocas: all locals are register slots.
        assert!(!f.body.iter().any(|i| matches!(i, Instr::Alloca { .. })));
    }

    #[test]
    fn lower_linked_list_length() {
        let p = compile(
            "struct node { int value; struct node *next; };
             int length(struct node *xs) {
                 int len = 0;
                 while (xs != NULL) {
                     len++;
                     xs = xs->next;
                 }
                 return len;
             }",
        );
        let f = p.function("length").unwrap();
        // `xs->next` is a FieldAddr + Load of node*.
        assert!(f.body.iter().any(|i| matches!(
            i,
            Instr::FieldAddr { field, offset: 8, .. } if field == "next"
        )));
        assert!(f.body.iter().any(
            |i| matches!(i, Instr::Load { ty, .. } if *ty == Type::ptr(Type::struct_("node")))
        ));
    }

    /// The paper's Figure 4, as the `instrument::pass` tests compile it.
    const FIGURE4: &str = "struct node { int value; struct node *next; };
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
         }";

    fn copies(f: &Function) -> usize {
        f.body
            .iter()
            .filter(|i| matches!(i, Instr::Copy { .. }))
            .count()
    }

    fn returned_slot(f: &Function) -> Slot {
        match f.body.last() {
            Some(Instr::Return { value: Some(s) }) => *s,
            other => panic!("{} ends in {other:?}", f.name),
        }
    }

    #[test]
    fn figure4_register_variables_need_no_copies() {
        let p = compile(FIGURE4);
        let sum = p.function("sum").unwrap();
        let length = p.function("length").unwrap();
        assert_eq!(copies(sum), 0, "{:?}", sum.body);
        assert_eq!(copies(length), 0, "{:?}", length.body);
        assert_eq!((sum.body.len(), length.body.len()), (11, 10));
        // `return s;` hands back `s`'s own slot, and `s += a[i]` adds
        // straight into it.
        let s = returned_slot(sum);
        assert!(
            sum.body
                .iter()
                .any(|i| matches!(i, Instr::Bin { dst, op: BinOp::Add, lhs, .. } if *dst == s && *lhs == s)),
            "{:?}", sum.body
        );
        // `xs = xs->next` loads into `xs`'s slot.
        let xs = length.params[0].slot;
        assert!(
            length
                .body
                .iter()
                .any(|i| matches!(i, Instr::Load { dst, .. } if *dst == xs)),
            "{:?}",
            length.body
        );
    }

    #[test]
    fn initialising_from_a_variable_keeps_its_copy() {
        let p = compile("int f(int x) { int y = x; return y; }");
        let f = p.function("f").unwrap();
        let y = returned_slot(f);
        let x = f.params[0].slot;
        assert_eq!(copies(f), 1, "{:?}", f.body);
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::Copy { dst, src } if *dst == y && *src == x)));
    }

    #[test]
    fn an_assignment_below_the_root_lowers_with_copies() {
        // Both reads of `x` are copied before `x = 5` can change it.
        let p = compile("int f(int x) { return x + (x = 5); }");
        let f = p.function("f").unwrap();
        let x = f.params[0].slot;
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::Copy { src, .. } if *src == x)));
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::Copy { dst, .. } if *dst == x)));
    }

    #[test]
    fn a_discarded_postfix_increment_lowers_as_the_prefix_form() {
        for (postfix, prefix) in [
            (
                "void f(int *a, int i) { a[i]++; }",
                "void f(int *a, int i) { ++a[i]; }",
            ),
            (
                "int f(int n) { int s = 0; for (int i = 0; i < n; i--) { s += i; } return s; }",
                "int f(int n) { int s = 0; for (int i = 0; i < n; --i) { s += i; } return s; }",
            ),
        ] {
            let body = |src: &str| compile(src).function("f").unwrap().body.clone();
            assert_eq!(body(postfix), body(prefix), "{postfix}");
        }
    }

    #[test]
    fn malloc_type_inference_from_cast_and_decl() {
        let p = compile(
            "struct T { float f; int x; };
             void f() {
                 struct T *a = (struct T *)malloc(sizeof(struct T));
                 struct T *b = malloc(100 * sizeof(struct T));
                 char *c = malloc(64);
             }",
        );
        let f = p.function("f").unwrap();
        let allocs: Vec<_> = f
            .body
            .iter()
            .filter_map(|i| match i {
                Instr::CallBuiltin {
                    builtin: Builtin::Malloc,
                    alloc_ty,
                    ..
                } => Some(alloc_ty.clone().unwrap()),
                _ => None,
            })
            .collect();
        assert_eq!(allocs.len(), 3);
        assert_eq!(allocs[0], Type::struct_("T"));
        assert_eq!(allocs[1], Type::struct_("T"));
        assert_eq!(allocs[2], Type::char_());
    }

    #[test]
    fn new_and_delete_lower_to_builtins() {
        let p = compile(
            "class T { int x; };
             void f() { T *q = new T; T *s = new T[10]; delete q; delete[] s; }",
        );
        let f = p.function("f").unwrap();
        let news = f
            .body
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::CallBuiltin {
                        builtin: Builtin::New,
                        ..
                    }
                )
            })
            .count();
        let deletes = f
            .body
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::CallBuiltin {
                        builtin: Builtin::Delete,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(news, 2);
        assert_eq!(deletes, 2);
    }

    #[test]
    fn address_taken_locals_become_allocas() {
        let p = compile(
            "void g(int *p) { }
             void f() {
                 int x = 1;
                 int arr[4];
                 g(&x);
                 arr[0] = x;
             }",
        );
        let f = p.function("f").unwrap();
        let allocas = f
            .body
            .iter()
            .filter(|i| matches!(i, Instr::Alloca { .. }))
            .count();
        assert_eq!(allocas, 2); // x (address taken) and arr (array)
    }

    #[test]
    fn struct_locals_use_allocas_and_field_addr() {
        let p = compile(
            "struct P { int x; int y; };
             int f() { struct P p; p.x = 1; p.y = 2; return p.x + p.y; }",
        );
        let f = p.function("f").unwrap();
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::Alloca { ty, .. } if *ty == Type::struct_("P"))));
        let field_addrs = f
            .body
            .iter()
            .filter(|i| matches!(i, Instr::FieldAddr { .. }))
            .count();
        assert!(field_addrs >= 4);
    }

    #[test]
    fn inherited_fields_resolve_through_base() {
        let p = compile(
            "class Base { int id; };
             class Derived : public Base { int extra; };
             int f(Derived *d) { return d->id + d->extra; }",
        );
        let f = p.function("f").unwrap();
        // `id` resolves at offset 0 (inside the embedded Base), `extra` at 4.
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::FieldAddr { field, offset: 0, .. } if field == "id")));
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::FieldAddr { field, offset: 4, .. } if field == "extra")));
    }

    #[test]
    fn string_literals_become_globals() {
        let p = compile(r#"void f() { print_str("hello"); }"#);
        assert!(p.globals.iter().any(|g| g.name == "__str0" && g.size == 6));
    }

    #[test]
    fn pointer_difference_is_scaled() {
        let p = compile("long f(int *a, int *b) { return a - b; }");
        let f = p.function("f").unwrap();
        assert!(f
            .body
            .iter()
            .any(|i| matches!(i, Instr::Bin { op: BinOp::Div, .. })));
    }

    #[test]
    fn short_circuit_operators_produce_branches() {
        let p = compile(
            "struct node { int v; struct node *next; };
             int f(struct node *p) { return p != NULL && p->v > 0; }",
        );
        let f = p.function("f").unwrap();
        let branches = f
            .body
            .iter()
            .filter(|i| matches!(i, Instr::Branch { .. }))
            .count();
        assert!(branches >= 1);
    }

    #[test]
    fn calls_check_arity_and_unknown_functions() {
        let unit = parse("void f() { g(1); }").unwrap();
        assert!(lower(&unit, 1).is_err());
        let unit = parse("void g(int a, int b) {} void f() { g(1); }").unwrap();
        assert!(lower(&unit, 1).is_err());
    }

    #[test]
    fn break_and_continue_outside_loops_are_errors() {
        let unit = parse("void f() { break; }").unwrap();
        assert!(lower(&unit, 1).is_err());
        let unit = parse("void f() { continue; }").unwrap();
        assert!(lower(&unit, 1).is_err());
    }

    #[test]
    fn bitwise_and_shift_operators_reject_float_operands() {
        for expr in ["x << 2", "x >> 1", "x & 3", "x | 3", "x ^ 3", "2 << x"] {
            let src = format!("int f(float x) {{ return (int)({expr}); }}");
            let unit = parse(&src).unwrap();
            let err = lower(&unit, 1).expect_err(&format!("`{expr}` must not lower"));
            assert!(
                err.to_string().contains("integer operands"),
                "unexpected message for `{expr}`: {err}"
            );
        }
        // Integer operands are still fine, and so are the logical
        // operators, which short-circuit over truthiness instead.
        for src in [
            "int f(int x) { return (x << 2) | (x & 3) ^ (x >> 1); }",
            "int f(float x) { return x && 1.5 || !x; }",
        ] {
            let unit = parse(src).unwrap();
            assert!(lower(&unit, 1).is_ok(), "`{src}` must lower");
        }
    }

    #[test]
    fn globals_are_lowered_with_sizes() {
        let p = compile(
            "struct S { int a[3]; char *s; };
             S pool[8];
             int counter = 7;
             double ratio = 2.5;",
        );
        assert_eq!(p.globals.len(), 3);
        assert_eq!(p.globals[0].size, 8 * 24);
        assert_eq!(p.globals[1].init.as_deref(), Some(&7i32.to_le_bytes()[..]));
        assert_eq!(p.globals[2].size, 8);
    }

    #[test]
    fn program_display_renders_ir() {
        let p = compile("int f(int x) { return x + 1; }");
        let text = p.to_string();
        assert!(text.contains("fn f(x: int) -> int"));
        assert!(text.contains("Return"));
    }

    #[test]
    fn conditional_expression_produces_single_result_slot() {
        let p = compile("int f(int a) { return a > 0 ? a : -a; }");
        let f = p.function("f").unwrap();
        assert!(f.body.iter().any(|i| matches!(i, Instr::Branch { .. })));
    }

    #[test]
    fn cma_allocations_are_recognised() {
        let p = compile(
            "struct BLK_HDR { int magic; int size; };
             void f() { struct BLK_HDR *h = (struct BLK_HDR *)xmalloc(64); }",
        );
        let f = p.function("f").unwrap();
        assert!(f.body.iter().any(|i| matches!(
            i,
            Instr::CallBuiltin { builtin: Builtin::CmaAlloc, alloc_ty: Some(t), .. }
                if *t == Type::struct_("BLK_HDR")
        )));
    }
}
