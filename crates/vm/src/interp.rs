//! The IR interpreter.
//!
//! The VM executes instrumented `minic` programs against the simulated
//! low-fat address space, dispatching every check instruction through a
//! single [`san_api::Sanitizer`] backend (an EffectiveSan variant or one of
//! the paper's comparison tools, constructed by [`san_api::build`]),
//! and counting every event needed by the paper's performance experiments
//! (instructions, loads/stores, allocations and the per-check counters
//! kept by the backend itself).

use std::collections::HashMap;
use std::sync::Arc;

use effective_runtime::{Bounds, RuntimeConfig};
use effective_types::{Type, TypeId};
use lowfat::{AllocKind, Ptr};
use minic::ast::{BinOp, UnOp};
use minic::ir::{Builtin, CastKind, Const, Function, Instr, Program};
use san_api::{SanStats, Sanitizer, SanitizerKind};
use serde::{Deserialize, Serialize};

use crate::profile::VmProfiler;
use crate::tier::{FastFunction, FastInstr, LoadKind, NO_INDEX};
use crate::value::Value;

/// Errors raised during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// The entry function does not exist.
    UndefinedFunction(String),
    /// A call to a function with the wrong number of arguments.
    ArityMismatch(String),
    /// Integer division by zero.
    DivisionByZero,
    /// The instruction budget was exhausted (runaway loop protection).
    InstructionLimit,
    /// The call stack exceeded the maximum depth.
    StackOverflow,
    /// The program called `abort()`.
    Aborted,
    /// Execution stopped because the error reporter reached its
    /// abort-after-N limit.
    Halted,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::UndefinedFunction(n) => write!(f, "undefined function `{n}`"),
            VmError::ArityMismatch(n) => write!(f, "arity mismatch calling `{n}`"),
            VmError::DivisionByZero => write!(f, "division by zero"),
            VmError::InstructionLimit => write!(f, "instruction limit exhausted"),
            VmError::StackOverflow => write!(f, "call stack overflow"),
            VmError::Aborted => write!(f, "program aborted"),
            VmError::Halted => write!(f, "halted after reaching the error limit"),
        }
    }
}

impl std::error::Error for VmError {}

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Which sanitizer the program was instrumented for (decides how check
    /// instructions are dispatched).
    pub sanitizer: SanitizerKind,
    /// EffectiveSan runtime configuration (reporting mode, quarantine).
    pub runtime: RuntimeConfig,
    /// Instruction budget (runaway-loop protection).
    pub max_instructions: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Seed for the `rand()` builtin.
    pub seed: u64,
    /// The tier switch: `u32::MAX` runs every activation in the slow
    /// tier, the semantic oracle; any other value translates each
    /// function at its first call and runs every activation in the fast
    /// tier.  No call count is kept: the name and the `u32` stay only
    /// because the benchmark harness assigns the field.
    pub promote_after_calls: u32,
    /// Read by nothing: there is no on-stack replacement, since every
    /// activation starts in the tier it ends in.  Kept only because the
    /// benchmark harness assigns it.
    pub osr_after_backjumps: u32,
    /// Collect a per-check-site / per-function profile (see
    /// [`Vm::profile_report`]).  Off by default; profiling is
    /// observational only — results, statistics and diagnostics are
    /// bit-identical either way (`tests/observability.rs` pins this).
    pub profile: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            sanitizer: SanitizerKind::EffectiveFull,
            runtime: RuntimeConfig::default(),
            max_instructions: 500_000_000,
            max_call_depth: 4096,
            seed: 0x5eed_0001,
            promote_after_calls: 1,
            osr_after_backjumps: u32::MAX,
            profile: false,
        }
    }
}

/// Execution event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Instructions executed (excluding check instructions).
    pub instructions: u64,
    /// Check instructions executed.  Each is one sanitizer hook call,
    /// except a check that exhausts the instruction budget: it is counted
    /// but never reaches its hook.
    pub check_instructions: u64,
    /// Memory loads performed.
    pub loads: u64,
    /// Memory stores performed.
    pub stores: u64,
    /// Function calls made.
    pub calls: u64,
    /// Allocations made (heap + stack + global).
    pub allocations: u64,
    /// Frees performed.
    pub frees: u64,
    /// Functions translated to the fast tier: each function called, once,
    /// or 0 with tiering off.
    pub tier_promotions: u64,
    /// Calls dispatched to the fast tier: every call, or 0 with tiering
    /// off.
    pub fast_calls: u64,
    /// Always 0: both tiers run every check the program carries, and
    /// nothing removes checks.  Kept because the sweep wire format's
    /// `exec` line and the benchmark's `vm.checks_elided` metric read it.
    pub checks_elided: u64,
}

/// The deterministic cost model used alongside wall-clock time for the
/// Figure 8/10 overhead experiments (`perfbench/README.md` sets measured
/// wall-clock overhead beside it): every event is assigned an approximate
/// cycle cost so relative overheads do not depend on interpreter details.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of an ordinary instruction.
    pub instruction: f64,
    /// Additional cost of a load or store.
    pub memory_access: f64,
    /// Cost of a `type_check` (layout hash table lookup).
    pub type_check: f64,
    /// Cost of a `cast_check`.
    pub cast_check: f64,
    /// Cost of a `bounds_get`.
    pub bounds_get: f64,
    /// Cost of a `bounds_check`.
    pub bounds_check: f64,
    /// Cost of a `bounds_narrow`.
    pub bounds_narrow: f64,
    /// Cost of a bound-table load on a bounds-register-file miss (the
    /// Intel-MPX model's `BNDLDX`, a two-level table walk).
    pub bounds_table_load: f64,
    /// Cost of a baseline per-access (shadow-memory) check.
    pub access_check: f64,
    /// Cost of an allocation.
    pub allocation: f64,
    /// Extra cost of binding type meta data to an allocation.
    pub typed_allocation_extra: f64,
    /// Cost of a free.
    pub free: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Approximate cycle costs on the paper's x86-64 target: a
        // `type_check` is an out-of-line call performing a layout-hash-table
        // lookup plus meta-data loads, bounds checks are short inline
        // compare/branch sequences, and binding type meta data makes
        // allocation noticeably more expensive.  The absolute values are
        // calibrated so the *relative* overheads of the EffectiveSan
        // variants on the synthetic workloads land in the neighbourhood of
        // Figure 8.
        CostModel {
            instruction: 1.0,
            memory_access: 1.0,
            type_check: 110.0,
            cast_check: 110.0,
            bounds_get: 16.0,
            bounds_check: 6.0,
            bounds_narrow: 3.0,
            bounds_table_load: 30.0,
            access_check: 6.0,
            allocation: 80.0,
            typed_allocation_extra: 60.0,
            free: 50.0,
        }
    }
}

impl CostModel {
    /// Estimated cost of an execution, combining VM event counts with the
    /// unified check counters of the active backend.
    pub fn cost(&self, exec: &ExecStats, checks: &SanStats) -> f64 {
        let mut c = 0.0;
        c += exec.instructions as f64 * self.instruction;
        c += (exec.loads + exec.stores) as f64 * self.memory_access;
        c += exec.allocations as f64 * self.allocation;
        c += exec.frees as f64 * self.free;
        c += checks.type_checks as f64 * self.type_check;
        c += checks.cast_checks as f64 * self.cast_check;
        c += checks.bounds_gets as f64 * self.bounds_get;
        c += checks.bounds_checks as f64 * self.bounds_check;
        c += checks.bounds_narrows as f64 * self.bounds_narrow;
        c += checks.bounds_table_loads as f64 * self.bounds_table_load;
        c += checks.access_checks as f64 * self.access_check;
        c += checks.typed_allocations as f64 * self.typed_allocation_extra;
        c
    }
}

/// A function-table entry: the slow-tier body (the semantic oracle) and,
/// from its first call with tiering on, its fast-tier translation.
#[derive(Debug)]
struct FuncEntry {
    slow: Arc<Function>,
    fast: Option<Arc<FastFunction>>,
}

/// The virtual machine.
#[derive(Debug)]
pub struct Vm {
    program: Arc<Program>,
    /// The sanitizer backend every check instruction and allocation event
    /// dispatches through — an EffectiveSan variant or a baseline tool,
    /// constructed from the `san-api` registry.  The backend also owns the
    /// simulated memory and the typed allocator, even for uninstrumented
    /// runs.
    backend: Box<dyn Sanitizer>,
    globals: HashMap<String, Ptr>,
    stats: ExecStats,
    output: Vec<String>,
    rng: u64,
    max_instructions: u64,
    max_call_depth: usize,
    /// Scratch stack for call arguments: callers push argument values and
    /// callees drain them into their frame slots, so no `Vec<Value>` is
    /// allocated per `Call` (frames nest, so a stack discipline suffices).
    arg_scratch: Vec<Value>,
    /// Function table in deterministic (sorted-name) order; the fast tier
    /// calls by index so the hot path never hashes a callee name.
    funcs: Vec<FuncEntry>,
    /// Name → function-table index.
    func_index: HashMap<String, u32>,
    /// Instrument-time check-type id → backend type id, built once at
    /// load time so check dispatch never hashes a structural type.
    check_type_map: Vec<TypeId>,
    /// Run every activation in the fast tier (`false` only when
    /// [`VmConfig::promote_after_calls`] is `u32::MAX`).
    tiered: bool,
    /// Opt-in site profiler ([`VmConfig::profile`]); `None` (the
    /// default) keeps the hot paths free of sampling.
    profiler: Option<Box<VmProfiler>>,
}

impl Vm {
    /// Create a VM for an (instrumented) program and allocate its globals.
    /// The backend is built by [`san_api::build`] according to
    /// [`VmConfig::sanitizer`].
    pub fn new(program: Arc<Program>, config: VmConfig) -> Self {
        let backend = san_api::build(config.sanitizer, program.registry.clone(), config.runtime);
        Vm::with_backend(program, backend, config)
    }

    /// Create a VM over an explicit backend (e.g. one wrapped to count
    /// its hook calls); `config.sanitizer` is ignored.
    pub fn with_backend(
        program: Arc<Program>,
        mut backend: Box<dyn Sanitizer>,
        config: VmConfig,
    ) -> Self {
        // Pre-intern every type the program references so the check hot
        // path never pays first-touch meta-data construction (a no-op for
        // tools without type meta data).
        let referenced = program.referenced_types();
        backend.preload_types(&referenced.alloc, &referenced.checks);

        // Allocate and initialise globals.
        let mut globals = HashMap::new();
        for g in &program.globals {
            let elem = g.ty.strip_array().clone();
            let ptr = backend.on_alloc(g.size, &elem, AllocKind::Global);
            if let Some(init) = &g.init {
                backend.memory_mut().write(ptr, init);
            }
            globals.insert(g.name.clone(), ptr);
        }

        // Build the function table in deterministic (sorted-name) order
        // and intern every check-site static type into the backend's id
        // space — after this, neither tier hashes a type or a callee name
        // while executing.
        let mut names: Vec<&String> = program.functions.keys().collect();
        names.sort();
        let func_names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let mut funcs = Vec::with_capacity(names.len());
        let mut func_index = HashMap::with_capacity(names.len());
        let mut check_type_map: Vec<TypeId> = Vec::new();
        for name in names {
            let func = program
                .functions
                .get(name)
                .expect("function exists")
                .clone();
            for instr in &func.body {
                if let Instr::TypeCheck { ty, ty_id, .. } | Instr::CastCheck { ty, ty_id, .. } =
                    instr
                {
                    let idx = ty_id.index();
                    if check_type_map.len() <= idx {
                        check_type_map.resize(idx + 1, TypeId::UNTYPED);
                    }
                    check_type_map[idx] = backend.intern_check_type(ty);
                }
            }
            func_index.insert(name.clone(), funcs.len() as u32);
            funcs.push(FuncEntry {
                slow: func,
                fast: None,
            });
        }

        Vm {
            program,
            backend,
            globals,
            stats: ExecStats::default(),
            output: Vec::new(),
            rng: config.seed.max(1),
            max_instructions: config.max_instructions,
            max_call_depth: config.max_call_depth,
            arg_scratch: Vec::with_capacity(64),
            funcs,
            func_index,
            check_type_map,
            tiered: config.promote_after_calls != u32::MAX,
            profiler: config
                .profile
                .then(|| Box::new(VmProfiler::new(func_names))),
        }
    }

    /// Which sanitizer this VM dispatches checks to.
    pub fn sanitizer(&self) -> SanitizerKind {
        self.backend.kind()
    }

    /// The active sanitizer backend (stats, error reports, memory).
    pub fn backend(&self) -> &dyn Sanitizer {
        self.backend.as_ref()
    }

    /// Mutable access to the active sanitizer backend (e.g. to drain
    /// diagnostics via [`Sanitizer::finish`]).
    pub fn backend_mut(&mut self) -> &mut dyn Sanitizer {
        self.backend.as_mut()
    }

    /// Execution statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The collected site/function profile, if [`VmConfig::profile`] was set.
    pub fn profile_report(&self) -> Option<obs::ProfileReport> {
        self.profiler.as_ref().map(|p| p.report())
    }

    /// Profiler hook: a check executed its backend call.
    #[inline]
    fn prof_check(&mut self, loc: &Arc<str>, passed: bool) {
        if let Some(p) = self.profiler.as_deref_mut() {
            p.check(loc, passed);
        }
    }

    /// Text emitted by `print_*` builtins.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Peak resident memory of the simulated address space, in bytes
    /// (Figure 9 metric).
    pub fn peak_memory_bytes(&self) -> u64 {
        self.backend.memory().peak_bytes()
    }

    /// The address of a global variable, if defined.
    pub fn global(&self, name: &str) -> Option<Ptr> {
        self.globals.get(name).copied()
    }

    /// Run `entry(args…)` to completion.
    pub fn run(&mut self, entry: &str, args: &[Value]) -> Result<Value, VmError> {
        self.arg_scratch.clear();
        self.arg_scratch.extend_from_slice(args);
        self.call(entry, 0, 0)
    }

    /// Call `name` with the arguments sitting at `arg_base..` on the
    /// scratch stack; consumes them (truncating back to `arg_base`) in
    /// every path.  Only name-based entry points (`run`, calls to
    /// functions absent at translation time) pay the name hash — calls
    /// between known functions go through [`Vm::call_indexed`].
    fn call(&mut self, name: &str, arg_base: usize, depth: usize) -> Result<Value, VmError> {
        if depth > self.max_call_depth {
            self.arg_scratch.truncate(arg_base);
            return Err(VmError::StackOverflow);
        }
        let Some(&idx) = self.func_index.get(name) else {
            self.arg_scratch.truncate(arg_base);
            return Err(VmError::UndefinedFunction(name.to_string()));
        };
        self.call_indexed(idx, arg_base, depth)
    }

    /// Call the function at table index `idx`.  With tiering on, its
    /// first call translates it to the fast tier and every activation
    /// runs there; with tiering off, every activation runs in the slow
    /// tier.  The callee is resolved with an `Arc` bump — the function
    /// body is never cloned.
    fn call_indexed(&mut self, idx: u32, arg_base: usize, depth: usize) -> Result<Value, VmError> {
        if depth > self.max_call_depth {
            self.arg_scratch.truncate(arg_base);
            return Err(VmError::StackOverflow);
        }
        let func = self.funcs[idx as usize].slow.clone();
        if func.params.len() != self.arg_scratch.len() - arg_base {
            self.arg_scratch.truncate(arg_base);
            return Err(VmError::ArityMismatch(func.name.clone()));
        }
        let fast = self.tiered.then(|| match &self.funcs[idx as usize].fast {
            Some(fast) => fast.clone(),
            None => self.translate(idx),
        });
        self.stats.calls += 1;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.call(idx);
        }

        let frame_mark = self.backend.stack_frame_begin();
        let mut slots: Vec<Value> = vec![Value::default(); func.num_slots];
        for (param, i) in func.params.iter().zip(arg_base..) {
            slots[param.slot as usize] = self.arg_scratch[i];
        }
        self.arg_scratch.truncate(arg_base);

        let result = match fast {
            Some(fast) => {
                self.stats.fast_calls += 1;
                self.exec_fast(&fast, &mut slots, depth, idx)
            }
            None => self.exec_body(&func, &mut slots, depth, idx),
        };
        self.backend.stack_frame_end(frame_mark);
        result
    }

    /// Translate the function at table index `idx` into its fast form,
    /// at its first call.
    fn translate(&mut self, idx: u32) -> Arc<FastFunction> {
        let slow = &self.funcs[idx as usize].slow;
        let fast = Arc::new(FastFunction::translate(
            slow,
            &self.program.registry,
            &self.globals,
            &self.func_index,
            &self.check_type_map,
        ));
        let tracer = obs::san_tracer();
        if tracer.enabled() {
            tracer.event(
                "tier_promote",
                &[
                    ("func", slow.name.as_str().into()),
                    ("fast_instrs", fast.body.len().into()),
                    ("sites", fast.sites.len().into()),
                ],
            );
        }
        self.stats.tier_promotions += 1;
        self.funcs[idx as usize].fast = Some(fast.clone());
        fast
    }

    fn exec_body(
        &mut self,
        func: &Function,
        slots: &mut [Value],
        depth: usize,
        func_idx: u32,
    ) -> Result<Value, VmError> {
        let body = &func.body;
        let mut pc: usize = 0;
        loop {
            if pc >= body.len() {
                return Ok(Value::Int(0));
            }
            let instr = &body[pc];
            if instr.is_check() {
                self.stats.check_instructions += 1;
            } else {
                self.stats.instructions += 1;
            }
            if let Some(p) = self.profiler.as_deref_mut() {
                p.instrs(func_idx, 1);
            }
            if self.stats.instructions + self.stats.check_instructions > self.max_instructions {
                return Err(VmError::InstructionLimit);
            }
            pc += 1;
            match instr {
                Instr::Const { dst, value } => {
                    slots[*dst as usize] = match value {
                        Const::Int(v) => Value::Int(*v),
                        Const::Float(v) => Value::Float(*v),
                        Const::Null => Value::Ptr(Ptr::NULL),
                    };
                }
                Instr::Copy { dst, src } => {
                    slots[*dst as usize] = slots[*src as usize];
                }
                Instr::Bin {
                    dst,
                    op,
                    lhs,
                    rhs,
                    float,
                } => {
                    let l = slots[*lhs as usize];
                    let r = slots[*rhs as usize];
                    slots[*dst as usize] = self.eval_bin(*op, l, r, *float)?;
                }
                Instr::Un {
                    dst,
                    op,
                    src,
                    float,
                } => {
                    let v = slots[*src as usize];
                    slots[*dst as usize] = match (op, float) {
                        (UnOp::Neg, true) => Value::Float(-v.as_float()),
                        (UnOp::Neg, false) => Value::Int(v.as_int().wrapping_neg()),
                        (UnOp::Not, _) => Value::Int(i64::from(!v.is_truthy())),
                        (UnOp::BitNot, _) => Value::Int(!v.as_int()),
                    };
                }
                Instr::Alloca { dst, ty, count } => {
                    let elem_size = self.program.registry.size_of(ty).unwrap_or(1).max(1);
                    // Saturate: a huge (attacker-controlled) element count
                    // must degrade into a failing allocation, not an
                    // interpreter panic on multiply overflow.
                    let size = elem_size.saturating_mul(*count.max(&1));
                    self.stats.allocations += 1;
                    let ptr = self.backend.on_alloc(size, ty, AllocKind::Stack);
                    slots[*dst as usize] = Value::Ptr(ptr);
                }
                Instr::GlobalAddr { dst, name } => {
                    let ptr = self.globals.get(name).copied().unwrap_or(Ptr::NULL);
                    slots[*dst as usize] = Value::Ptr(ptr);
                }
                Instr::Load { dst, ptr, ty } => {
                    self.stats.loads += 1;
                    let addr = slots[*ptr as usize].as_ptr();
                    slots[*dst as usize] = self.load_typed(addr, ty);
                }
                Instr::Store { ptr, src, ty } => {
                    self.stats.stores += 1;
                    let addr = slots[*ptr as usize].as_ptr();
                    let value = slots[*src as usize];
                    self.store_typed(addr, ty, value);
                }
                Instr::FieldAddr {
                    dst, base, offset, ..
                } => {
                    let b = slots[*base as usize].as_ptr();
                    slots[*dst as usize] = Value::Ptr(b.add(*offset));
                }
                Instr::PtrAdd {
                    dst,
                    base,
                    index,
                    elem_size,
                    ..
                } => {
                    let b = slots[*base as usize].as_ptr();
                    let i = slots[*index as usize].as_int();
                    slots[*dst as usize] = Value::Ptr(b.offset(i.wrapping_mul(*elem_size as i64)));
                }
                Instr::Cast {
                    dst,
                    src,
                    kind,
                    to_ty,
                    ..
                } => {
                    let v = slots[*src as usize];
                    slots[*dst as usize] = match kind {
                        CastKind::Bit | CastKind::IntToPtr => Value::Ptr(v.as_ptr()),
                        CastKind::PtrToInt => Value::Int(v.as_ptr().addr() as i64),
                        CastKind::Numeric => {
                            if to_ty.is_float() {
                                Value::Float(v.as_float())
                            } else {
                                Value::Int(v.as_int())
                            }
                        }
                    };
                }
                Instr::Call {
                    dst, callee, args, ..
                } => {
                    let arg_base = self.arg_scratch.len();
                    self.arg_scratch
                        .extend(args.iter().map(|a| slots[*a as usize]));
                    let result = self.call(callee, arg_base, depth + 1)?;
                    if let Some(d) = dst {
                        slots[*d as usize] = result;
                    }
                }
                Instr::CallBuiltin {
                    dst,
                    builtin,
                    args,
                    alloc_ty,
                    ..
                } => {
                    // No builtin reads past its third argument, and lowering
                    // checks every builtin's arity, so a fixed buffer of the
                    // first four arguments is all `call_builtin` needs.
                    let mut argv = [Value::default(); 4];
                    for (slot, arg) in argv.iter_mut().zip(args.iter()) {
                        *slot = slots[*arg as usize];
                    }
                    let argc = args.len().min(argv.len());
                    let result = self.call_builtin(*builtin, &argv[..argc], alloc_ty.as_ref())?;
                    if let Some(d) = dst {
                        slots[*d as usize] = result;
                    }
                }
                Instr::Jump { target } => {
                    pc = *target;
                }
                Instr::Branch {
                    cond,
                    then_target,
                    else_target,
                } => {
                    pc = if slots[*cond as usize].is_truthy() {
                        *then_target
                    } else {
                        *else_target
                    };
                }
                Instr::Return { value } => {
                    return Ok(value.map(|v| slots[v as usize]).unwrap_or(Value::Int(0)));
                }

                // ----- checks -----
                Instr::TypeCheck {
                    dst,
                    ptr,
                    ty_id,
                    loc,
                    ..
                } => {
                    let p = slots[*ptr as usize].as_ptr();
                    let id = self.backend_type_id(*ty_id);
                    let b = self.backend.type_check(p, id, loc);
                    slots[*dst as usize] = Value::Bounds(b);
                    self.prof_check(loc, true);
                    if self.backend.halted() {
                        return Err(VmError::Halted);
                    }
                }
                Instr::CastCheck {
                    dst,
                    ptr,
                    ty_id,
                    loc,
                    ..
                } => {
                    let p = slots[*ptr as usize].as_ptr();
                    let id = self.backend_type_id(*ty_id);
                    let b = self.backend.cast_check(p, id, loc);
                    slots[*dst as usize] = Value::Bounds(b);
                    self.prof_check(loc, true);
                    if self.backend.halted() {
                        return Err(VmError::Halted);
                    }
                }
                Instr::BoundsGet { dst, ptr } => {
                    let p = slots[*ptr as usize].as_ptr();
                    let b = self.backend.bounds_get(p);
                    slots[*dst as usize] = Value::Bounds(b);
                }
                Instr::BoundsNarrow {
                    dst,
                    bounds,
                    field_base,
                    size,
                } => {
                    let b = slots[*bounds as usize].as_bounds();
                    let base = slots[*field_base as usize].as_ptr();
                    let field = Bounds::from_base_size(base, *size);
                    let narrowed = self.backend.bounds_narrow(b, field);
                    slots[*dst as usize] = Value::Bounds(narrowed);
                }
                Instr::BoundsCheck {
                    ptr,
                    bounds,
                    size,
                    escape,
                    loc,
                } => {
                    let p = slots[*ptr as usize].as_ptr();
                    let b = slots[*bounds as usize].as_bounds();
                    let ok = self.backend.bounds_check(p, *size, b, loc, *escape);
                    self.prof_check(loc, ok);
                    if self.backend.halted() {
                        return Err(VmError::Halted);
                    }
                }
                Instr::AccessCheck {
                    ptr,
                    size,
                    write,
                    loc,
                } => {
                    let p = slots[*ptr as usize].as_ptr();
                    let ok = self.backend.access_check(p, *size, *write, loc);
                    self.prof_check(loc, ok);
                    if self.backend.halted() {
                        return Err(VmError::Halted);
                    }
                }
            }
        }
    }

    /// Map an instrument-time check-type id to the backend's id space.
    #[inline]
    fn backend_type_id(&self, ty_id: TypeId) -> TypeId {
        self.check_type_map
            .get(ty_id.index())
            .copied()
            .unwrap_or(TypeId::UNTYPED)
    }

    /// Execute a fast-tier function body starting at fast-tier pc
    /// `entry` (0 for a call, a mapped jump target for OSR).
    ///
    /// Every arm replicates the slow tier's event order exactly —
    /// count, budget test, effect, halt test — including inside fused
    /// superinstructions, so all statistics and diagnostics are
    /// bit-identical between tiers.
    // `tick!()` decrements the budget register after the limit test; arms
    // that return or reload the register immediately afterwards leave that
    // final decrement dead, which is expected.
    #[allow(unused_assignments)]
    fn exec_fast(
        &mut self,
        func: &FastFunction,
        slots: &mut [Value],
        depth: usize,
        func_idx: u32,
    ) -> Result<Value, VmError> {
        let body = &func.body;
        let mut pc: usize = 0;
        // The instruction budget, kept in a register so the per-dispatch
        // limit test is a decrement instead of two counter loads and an
        // add.  `left == 0` exactly when the slow tier's
        // `instructions + check_instructions > max_instructions` would
        // fire on the next counted event; reloaded after nested calls,
        // which consume budget of their own.
        let mut left = self
            .max_instructions
            .saturating_sub(self.stats.instructions + self.stats.check_instructions);
        // Event counts accumulate in registers and flush to `self.stats`
        // at every exit and around nested calls, keeping the dispatch
        // loop free of memory traffic on its own counters.
        let mut n_instr: u64 = 0;
        let mut n_check: u64 = 0;
        macro_rules! flush {
            () => {
                self.stats.instructions += n_instr;
                self.stats.check_instructions += n_check;
                if let Some(p) = self.profiler.as_deref_mut() {
                    p.instrs(func_idx, n_instr + n_check);
                }
                n_instr = 0;
                n_check = 0;
            };
        }
        macro_rules! fail {
            ($e:expr) => {{
                flush!();
                return Err($e);
            }};
        }
        macro_rules! tick {
            () => {
                n_instr += 1;
                if left == 0 {
                    fail!(VmError::InstructionLimit);
                }
                left -= 1;
            };
        }
        macro_rules! tick_check {
            () => {
                n_check += 1;
                if left == 0 {
                    fail!(VmError::InstructionLimit);
                }
                left -= 1;
            };
        }
        macro_rules! halted {
            () => {
                if self.backend.halted() {
                    fail!(VmError::Halted);
                }
            };
        }
        loop {
            if pc >= body.len() {
                flush!();
                return Ok(Value::Int(0));
            }
            let cur = pc;
            pc += 1;
            match body[cur] {
                FastInstr::ConstInt { dst, value } => {
                    tick!();
                    slots[dst as usize] = Value::Int(value);
                }
                FastInstr::ConstFloat { dst, value } => {
                    tick!();
                    slots[dst as usize] = Value::Float(value);
                }
                FastInstr::ConstNull { dst } => {
                    tick!();
                    slots[dst as usize] = Value::Ptr(Ptr::NULL);
                }
                FastInstr::Copy { dst, src } => {
                    tick!();
                    slots[dst as usize] = slots[src as usize];
                }
                FastInstr::Bin {
                    dst,
                    op,
                    lhs,
                    rhs,
                    float,
                } => {
                    tick!();
                    let l = slots[lhs as usize];
                    let r = slots[rhs as usize];
                    slots[dst as usize] = match self.eval_bin(op, l, r, float) {
                        Ok(v) => v,
                        Err(e) => fail!(e),
                    };
                }
                FastInstr::Un {
                    dst,
                    op,
                    src,
                    float,
                } => {
                    tick!();
                    let v = slots[src as usize];
                    slots[dst as usize] = match (op, float) {
                        (UnOp::Neg, true) => Value::Float(-v.as_float()),
                        (UnOp::Neg, false) => Value::Int(v.as_int().wrapping_neg()),
                        (UnOp::Not, _) => Value::Int(i64::from(!v.is_truthy())),
                        (UnOp::BitNot, _) => Value::Int(!v.as_int()),
                    };
                }
                FastInstr::Alloca { dst, ty, size } => {
                    tick!();
                    self.stats.allocations += 1;
                    let ptr =
                        self.backend
                            .on_alloc(size, &func.types[ty as usize], AllocKind::Stack);
                    slots[dst as usize] = Value::Ptr(ptr);
                }
                FastInstr::GlobalAddr { dst, ptr } => {
                    tick!();
                    slots[dst as usize] = Value::Ptr(ptr);
                }
                FastInstr::Load { dst, ptr, kind } => {
                    tick!();
                    self.stats.loads += 1;
                    let addr = slots[ptr as usize].as_ptr();
                    slots[dst as usize] = self.load_kinded(addr, kind);
                }
                FastInstr::Store { ptr, src, kind } => {
                    tick!();
                    self.stats.stores += 1;
                    let addr = slots[ptr as usize].as_ptr();
                    let value = slots[src as usize];
                    self.store_kinded(addr, kind, value);
                }
                FastInstr::FieldAddr { dst, base, offset } => {
                    tick!();
                    let b = slots[base as usize].as_ptr();
                    slots[dst as usize] = Value::Ptr(b.add(offset));
                }
                FastInstr::PtrAdd {
                    dst,
                    base,
                    index,
                    elem_size,
                } => {
                    tick!();
                    let b = slots[base as usize].as_ptr();
                    let i = slots[index as usize].as_int();
                    slots[dst as usize] = Value::Ptr(b.offset(i.wrapping_mul(elem_size as i64)));
                }
                FastInstr::CastPtr { dst, src } => {
                    tick!();
                    slots[dst as usize] = Value::Ptr(slots[src as usize].as_ptr());
                }
                FastInstr::CastPtrToInt { dst, src } => {
                    tick!();
                    slots[dst as usize] = Value::Int(slots[src as usize].as_ptr().addr() as i64);
                }
                FastInstr::CastFloat { dst, src } => {
                    tick!();
                    slots[dst as usize] = Value::Float(slots[src as usize].as_float());
                }
                FastInstr::CastInt { dst, src } => {
                    tick!();
                    slots[dst as usize] = Value::Int(slots[src as usize].as_int());
                }
                FastInstr::Call { dst, callee, args } => {
                    tick!();
                    let arg_base = self.arg_scratch.len();
                    let window =
                        &func.args[args.start as usize..args.start as usize + args.len as usize];
                    for &s in window {
                        let v = slots[s as usize];
                        self.arg_scratch.push(v);
                    }
                    flush!();
                    let result = self.call_indexed(callee, arg_base, depth + 1)?;
                    left = self
                        .max_instructions
                        .saturating_sub(self.stats.instructions + self.stats.check_instructions);
                    if dst != NO_INDEX {
                        slots[dst as usize] = result;
                    }
                }
                FastInstr::CallUnknown { dst, name, args } => {
                    tick!();
                    let arg_base = self.arg_scratch.len();
                    let window =
                        &func.args[args.start as usize..args.start as usize + args.len as usize];
                    for &s in window {
                        let v = slots[s as usize];
                        self.arg_scratch.push(v);
                    }
                    flush!();
                    let result = self.call(&func.names[name as usize], arg_base, depth + 1)?;
                    left = self
                        .max_instructions
                        .saturating_sub(self.stats.instructions + self.stats.check_instructions);
                    if dst != NO_INDEX {
                        slots[dst as usize] = result;
                    }
                }
                FastInstr::CallBuiltin {
                    dst,
                    builtin,
                    args,
                    alloc_ty,
                } => {
                    tick!();
                    let window =
                        &func.args[args.start as usize..args.start as usize + args.len as usize];
                    let alloc_ty = if alloc_ty == NO_INDEX {
                        None
                    } else {
                        Some(&func.types[alloc_ty as usize])
                    };
                    flush!();
                    let mut argv = [Value::default(); 4];
                    for (slot, arg) in argv.iter_mut().zip(window.iter()) {
                        *slot = slots[*arg as usize];
                    }
                    let argc = window.len().min(argv.len());
                    let result = self.call_builtin(builtin, &argv[..argc], alloc_ty)?;
                    if dst != NO_INDEX {
                        slots[dst as usize] = result;
                    }
                }
                FastInstr::Jump { target } => {
                    tick!();
                    pc = target as usize;
                }
                FastInstr::Branch {
                    cond,
                    then_target,
                    else_target,
                } => {
                    tick!();
                    pc = if slots[cond as usize].is_truthy() {
                        then_target as usize
                    } else {
                        else_target as usize
                    };
                }
                FastInstr::Return { value } => {
                    tick!();
                    flush!();
                    return Ok(if value == NO_INDEX {
                        Value::Int(0)
                    } else {
                        slots[value as usize]
                    });
                }

                // ----- checks -----
                FastInstr::TypeCheck { dst, ptr, ty, site } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let b = self.backend.type_check(p, ty, &func.sites[site as usize]);
                    slots[dst as usize] = Value::Bounds(b);
                    self.prof_check(&func.sites[site as usize], true);
                    halted!();
                }
                FastInstr::CastCheck { dst, ptr, ty, site } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let b = self.backend.cast_check(p, ty, &func.sites[site as usize]);
                    slots[dst as usize] = Value::Bounds(b);
                    self.prof_check(&func.sites[site as usize], true);
                    halted!();
                }
                FastInstr::BoundsGet { dst, ptr } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let b = self.backend.bounds_get(p);
                    slots[dst as usize] = Value::Bounds(b);
                }
                FastInstr::BoundsNarrow {
                    dst,
                    bounds,
                    field_base,
                    size,
                } => {
                    tick_check!();
                    let b = slots[bounds as usize].as_bounds();
                    let base = slots[field_base as usize].as_ptr();
                    let field = Bounds::from_base_size(base, size);
                    slots[dst as usize] = Value::Bounds(self.backend.bounds_narrow(b, field));
                }
                FastInstr::BoundsCheck {
                    ptr,
                    bounds,
                    size,
                    escape,
                    site,
                } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let b = slots[bounds as usize].as_bounds();
                    let ok =
                        self.backend
                            .bounds_check(p, size, b, &func.sites[site as usize], escape);
                    self.prof_check(&func.sites[site as usize], ok);
                    halted!();
                }
                FastInstr::AccessCheck {
                    ptr,
                    size,
                    write,
                    site,
                } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let ok = self
                        .backend
                        .access_check(p, size, write, &func.sites[site as usize]);
                    self.prof_check(&func.sites[site as usize], ok);
                    halted!();
                }

                // ----- superinstructions -----
                FastInstr::CheckLoad {
                    dst,
                    ptr,
                    bounds,
                    check_size,
                    site,
                    kind,
                } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let b = slots[bounds as usize].as_bounds();
                    let ok = self.backend.bounds_check(
                        p,
                        check_size,
                        b,
                        &func.sites[site as usize],
                        false,
                    );
                    self.prof_check(&func.sites[site as usize], ok);
                    halted!();
                    tick!();
                    self.stats.loads += 1;
                    slots[dst as usize] = self.load_kinded(p, kind);
                }
                FastInstr::CheckStore {
                    ptr,
                    bounds,
                    src,
                    check_size,
                    site,
                    kind,
                } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let b = slots[bounds as usize].as_bounds();
                    let ok = self.backend.bounds_check(
                        p,
                        check_size,
                        b,
                        &func.sites[site as usize],
                        false,
                    );
                    self.prof_check(&func.sites[site as usize], ok);
                    halted!();
                    tick!();
                    self.stats.stores += 1;
                    let value = slots[src as usize];
                    self.store_kinded(p, kind, value);
                }
                FastInstr::AccessLoad {
                    dst,
                    ptr,
                    check_size,
                    site,
                    kind,
                } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let ok =
                        self.backend
                            .access_check(p, check_size, false, &func.sites[site as usize]);
                    self.prof_check(&func.sites[site as usize], ok);
                    halted!();
                    tick!();
                    self.stats.loads += 1;
                    slots[dst as usize] = self.load_kinded(p, kind);
                }
                FastInstr::AccessStore {
                    ptr,
                    src,
                    check_size,
                    site,
                    kind,
                } => {
                    tick_check!();
                    let p = slots[ptr as usize].as_ptr();
                    let ok =
                        self.backend
                            .access_check(p, check_size, true, &func.sites[site as usize]);
                    self.prof_check(&func.sites[site as usize], ok);
                    halted!();
                    tick!();
                    self.stats.stores += 1;
                    let value = slots[src as usize];
                    self.store_kinded(p, kind, value);
                }
            }
        }
    }

    /// Fast-tier load with a pre-resolved width (mirrors `load_typed`).
    #[inline(always)]
    fn load_kinded(&self, addr: Ptr, kind: LoadKind) -> Value {
        let mem = self.backend.memory();
        match kind {
            LoadKind::Ptr => Value::Ptr(Ptr(mem.read_u64(addr))),
            LoadKind::F32 => Value::Float(mem.read_f32(addr) as f64),
            LoadKind::F64 => Value::Float(mem.read_f64(addr)),
            LoadKind::Int(size) => {
                let raw = mem.read_uint(addr, size as u64);
                let shift = 64 - (size as u64 * 8);
                Value::Int(((raw << shift) as i64) >> shift)
            }
        }
    }

    /// Fast-tier store with a pre-resolved width (mirrors `store_typed`).
    #[inline(always)]
    fn store_kinded(&mut self, addr: Ptr, kind: LoadKind, value: Value) {
        let mem = self.backend.memory_mut();
        match kind {
            LoadKind::Ptr => mem.write_u64(addr, value.as_ptr().addr()),
            LoadKind::F32 => mem.write_f32(addr, value.as_float() as f32),
            LoadKind::F64 => mem.write_f64(addr, value.as_float()),
            LoadKind::Int(size) => mem.write_uint(addr, size as u64, value.as_int() as u64),
        }
    }

    #[inline(always)]
    fn eval_bin(&self, op: BinOp, l: Value, r: Value, float: bool) -> Result<Value, VmError> {
        if float {
            let a = l.as_float();
            let b = r.as_float();
            let v = match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                BinOp::Div => Value::Float(a / b),
                BinOp::Rem => Value::Float(a % b),
                BinOp::Lt => Value::Int(i64::from(a < b)),
                BinOp::Le => Value::Int(i64::from(a <= b)),
                BinOp::Gt => Value::Int(i64::from(a > b)),
                BinOp::Ge => Value::Int(i64::from(a >= b)),
                BinOp::Eq => Value::Int(i64::from(a == b)),
                BinOp::Ne => Value::Int(i64::from(a != b)),
                _ => Value::Int(0),
            };
            return Ok(v);
        }
        let a = l.as_int();
        let b = r.as_int();
        let v = match op {
            BinOp::Add => Value::Int(a.wrapping_add(b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    return Err(VmError::DivisionByZero);
                }
                Value::Int(a.wrapping_div(b))
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(VmError::DivisionByZero);
                }
                Value::Int(a.wrapping_rem(b))
            }
            BinOp::Shl => Value::Int(a.wrapping_shl(b as u32 & 63)),
            BinOp::Shr => Value::Int(a.wrapping_shr(b as u32 & 63)),
            BinOp::BitAnd => Value::Int(a & b),
            BinOp::BitOr => Value::Int(a | b),
            BinOp::BitXor => Value::Int(a ^ b),
            BinOp::Lt => Value::Int(i64::from(a < b)),
            BinOp::Le => Value::Int(i64::from(a <= b)),
            BinOp::Gt => Value::Int(i64::from(a > b)),
            BinOp::Ge => Value::Int(i64::from(a >= b)),
            BinOp::Eq => Value::Int(i64::from(a == b)),
            BinOp::Ne => Value::Int(i64::from(a != b)),
            BinOp::LogicalAnd => Value::Int(i64::from(a != 0 && b != 0)),
            BinOp::LogicalOr => Value::Int(i64::from(a != 0 || b != 0)),
        };
        Ok(v)
    }

    fn load_typed(&self, addr: Ptr, ty: &Type) -> Value {
        let mem = self.backend.memory();
        if ty.is_pointer() {
            return Value::Ptr(Ptr(mem.read_u64(addr)));
        }
        if ty.is_float() {
            let size = self.program.registry.size_of(ty).unwrap_or(8);
            return if size == 4 {
                Value::Float(mem.read_f32(addr) as f64)
            } else {
                Value::Float(mem.read_f64(addr))
            };
        }
        let size = self.program.registry.size_of(ty).unwrap_or(8).min(8);
        let raw = mem.read_uint(addr, size);
        // Sign-extend according to the width.
        let shift = 64 - (size * 8);
        Value::Int(((raw << shift) as i64) >> shift)
    }

    fn store_typed(&mut self, addr: Ptr, ty: &Type, value: Value) {
        let mem = self.backend.memory_mut();
        if ty.is_pointer() {
            mem.write_u64(addr, value.as_ptr().addr());
            return;
        }
        if ty.is_float() {
            let size = self.program.registry.size_of(ty).unwrap_or(8);
            if size == 4 {
                mem.write_f32(addr, value.as_float() as f32);
            } else {
                mem.write_f64(addr, value.as_float());
            }
            return;
        }
        let size = self.program.registry.size_of(ty).unwrap_or(8).min(8);
        mem.write_uint(addr, size, value.as_int() as u64);
    }

    fn call_builtin(
        &mut self,
        builtin: Builtin,
        args: &[Value],
        alloc_ty: Option<&Type>,
    ) -> Result<Value, VmError> {
        let loc: Arc<str> = Arc::from("builtin");
        let arg = |i: usize| args.get(i).copied().unwrap_or_default();
        match builtin {
            Builtin::Malloc | Builtin::New => {
                let size = arg(0).as_int().max(0) as u64;
                let ty = alloc_ty.cloned().unwrap_or_else(Type::char_);
                self.stats.allocations += 1;
                let p = self.backend.on_alloc(size, &ty, AllocKind::Heap);
                Ok(Value::Ptr(p))
            }
            Builtin::Calloc => {
                let n = arg(0).as_int().max(0) as u64;
                let sz = arg(1).as_int().max(0) as u64;
                let size = n.saturating_mul(sz);
                let ty = alloc_ty.cloned().unwrap_or_else(Type::char_);
                self.stats.allocations += 1;
                let p = self.backend.on_alloc(size, &ty, AllocKind::Heap);
                self.backend.memory_mut().fill(p, size, 0);
                Ok(Value::Ptr(p))
            }
            Builtin::Realloc => {
                let old = arg(0).as_ptr();
                let size = arg(1).as_int().max(0) as u64;
                let ty = alloc_ty.cloned().unwrap_or_else(Type::char_);
                self.stats.allocations += 1;
                self.stats.frees += 1;
                let p = self.backend.on_realloc(old, size, &ty, &loc);
                Ok(Value::Ptr(p))
            }
            Builtin::Free | Builtin::Delete => {
                let p = arg(0).as_ptr();
                self.stats.frees += 1;
                self.backend.on_free(p, &loc);
                Ok(Value::Int(0))
            }
            Builtin::CmaAlloc => {
                let size = arg(0).as_int().max(0) as u64;
                let ty = alloc_ty.cloned().unwrap_or_else(Type::char_);
                self.stats.allocations += 1;
                // Custom memory allocators are uninstrumented: the object is
                // legacy and invisible to every sanitizer.
                let p = self.backend.on_alloc(size, &ty, AllocKind::Legacy);
                Ok(Value::Ptr(p))
            }
            Builtin::CmaFree => Ok(Value::Int(0)),
            Builtin::Memcpy | Builtin::Memmove => {
                let dst = arg(0).as_ptr();
                let src = arg(1).as_ptr();
                let n = arg(2).as_int().max(0) as u64;
                self.stats.loads += 1;
                self.stats.stores += 1;
                self.backend.memory_mut().copy(dst, src, n);
                Ok(Value::Ptr(dst))
            }
            Builtin::Memset => {
                let dst = arg(0).as_ptr();
                let byte = arg(1).as_int() as u8;
                let n = arg(2).as_int().max(0) as u64;
                self.stats.stores += 1;
                self.backend.memory_mut().fill(dst, n, byte);
                Ok(Value::Ptr(dst))
            }
            Builtin::Strlen => {
                let p = arg(0).as_ptr();
                let mut len = 0u64;
                while len < 1 << 20 && self.backend.memory().read_u8(p.add(len)) != 0 {
                    len += 1;
                }
                self.stats.loads += 1;
                Ok(Value::Int(len as i64))
            }
            Builtin::PrintInt => {
                self.output.push(arg(0).as_int().to_string());
                Ok(Value::Int(0))
            }
            Builtin::PrintFloat => {
                self.output.push(format!("{:.6}", arg(0).as_float()));
                Ok(Value::Int(0))
            }
            Builtin::PrintStr => {
                let p = arg(0).as_ptr();
                let mut bytes = Vec::new();
                for i in 0..4096u64 {
                    let b = self.backend.memory().read_u8(p.add(i));
                    if b == 0 {
                        break;
                    }
                    bytes.push(b);
                }
                self.output
                    .push(String::from_utf8_lossy(&bytes).into_owned());
                Ok(Value::Int(0))
            }
            Builtin::Rand => {
                // xorshift64*
                let mut x = self.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng = x;
                Ok(Value::Int(
                    (x.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as i64,
                ))
            }
            Builtin::Abort => Err(VmError::Aborted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use effective_runtime::ErrorKind;
    use instrument::instrument_program;

    fn run_with(src: &str, kind: SanitizerKind, entry: &str, args: &[Value]) -> (Value, Vm) {
        let program = minic::compile(src).unwrap();
        let instrumented = instrument_program(&program, kind);
        let mut vm = Vm::new(
            Arc::new(instrumented),
            VmConfig {
                sanitizer: kind,
                ..Default::default()
            },
        );
        let v = vm.run(entry, args).unwrap();
        (v, vm)
    }

    #[test]
    fn builtin_arguments_past_the_fourth_are_ignored_in_both_tiers() {
        // Lowering rejects a wrong builtin arity, so only hand-built IR can
        // pass extra arguments; both tiers ignore them.
        let mut program = minic::compile("int run(int n) { print_int(n); return n; }").unwrap();
        let run = Arc::make_mut(program.functions.get_mut("run").unwrap());
        for instr in &mut run.body {
            if let Instr::CallBuiltin { args, .. } = instr {
                let first = args[0];
                args.extend([first; 5]);
            }
        }
        for promote_after_calls in [1, u32::MAX] {
            let mut vm = Vm::new(
                Arc::new(program.clone()),
                VmConfig {
                    promote_after_calls,
                    ..Default::default()
                },
            );
            assert_eq!(vm.run("run", &[Value::Int(7)]).unwrap(), Value::Int(7));
            assert_eq!(vm.output(), ["7"]);
        }
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }";
        let (v, _) = run_with(src, SanitizerKind::None, "fib", &[Value::Int(12)]);
        assert_eq!(v, Value::Int(144));
    }

    #[test]
    fn figure4_sum_runs_correctly_under_full_instrumentation() {
        let src = "int run(int n) {
                 int *a = (int *)malloc(n * sizeof(int));
                 for (int i = 0; i < n; i++) { a[i] = i; }
                 int s = 0;
                 for (int i = 0; i < n; i++) { s += a[i]; }
                 free(a);
                 return s;
             }";
        let (v, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[Value::Int(100)]);
        assert_eq!(v, Value::Int(4950));
        // No false positives on a correct program.
        assert_eq!(vm.backend().error_stats().distinct_issues, 0);
        assert!(vm.backend().stats().type_checks >= 1);
        assert!(vm.backend().stats().bounds_checks >= 200);
    }

    #[test]
    fn linked_list_traversal_with_type_checks() {
        let src = "struct node { int value; struct node *next; };
             int run(int n) {
                 struct node *head = NULL;
                 for (int i = 0; i < n; i++) {
                     struct node *nw = (struct node *)malloc(sizeof(struct node));
                     nw->value = i;
                     nw->next = head;
                     head = nw;
                 }
                 int len = 0;
                 struct node *xs = head;
                 while (xs != NULL) { len++; xs = xs->next; }
                 return len;
             }";
        let (v, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[Value::Int(50)]);
        assert_eq!(v, Value::Int(50));
        assert_eq!(vm.backend().error_stats().distinct_issues, 0);
        // The loop type-checks the pointer loaded from memory each
        // iteration: O(N) dynamic type checks (Figure 4 discussion).
        assert!(vm.backend().stats().type_checks as i64 >= 50);
    }

    #[test]
    fn subobject_overflow_is_detected_end_to_end() {
        // The introduction's account example: overflowing `number` into
        // `balance`.
        let src = "struct account { int number[8]; float balance; };
             int run(int idx) {
                 struct account *a = (struct account *)malloc(sizeof(struct account));
                 a->balance = 100.0;
                 int *n = a->number;
                 n[idx] = 7;
                 free(a);
                 return 0;
             }";
        // In-bounds write: no issue.
        let (_, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[Value::Int(3)]);
        assert_eq!(vm.backend().error_stats().distinct_issues, 0);
        // Out-of-bounds index 8 lands on `balance`: sub-object overflow.
        let (_, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[Value::Int(8)]);
        assert_eq!(
            vm.backend()
                .error_stats()
                .issues_of(ErrorKind::SubObjectBoundsOverflow),
            1
        );
        // AddressSanitizer misses it (stays inside the allocation).
        let program = minic::compile(src).unwrap();
        let asan = instrument_program(&program, SanitizerKind::AddressSanitizer);
        let mut vm = Vm::new(
            Arc::new(asan),
            VmConfig {
                sanitizer: SanitizerKind::AddressSanitizer,
                ..Default::default()
            },
        );
        vm.run("run", &[Value::Int(8)]).unwrap();
        assert_eq!(vm.backend().error_stats().bounds_issues(), 0);
    }

    #[test]
    fn use_after_free_and_double_free_detected() {
        // The dangling pointer is passed to another function, so the rule
        // (a) parameter check re-validates it against the (now FREE)
        // dynamic type — the same pattern as the perlbench UAF bug.
        let src = "struct S { int x; };
             int read_it(struct S *p) { return p->x; }
             int run(void) {
                 struct S *p = (struct S *)malloc(sizeof(struct S));
                 p->x = 1;
                 free(p);
                 int v = read_it(p);
                 free(p);
                 return v;
             }";
        let (_, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[]);
        let stats = vm.backend().error_stats();
        assert!(stats.issues_of(ErrorKind::UseAfterFree) >= 1);
        assert_eq!(stats.issues_of(ErrorKind::DoubleFree), 1);
    }

    #[test]
    fn type_confusion_via_cast_detected_by_full_and_type_variants() {
        let src = "struct S { int x; float y; };
             struct T { char buf[16]; };
             int run(void) {
                 struct S *s = (struct S *)malloc(sizeof(struct S));
                 struct T *t = (struct T *)s;
                 return 0;
             }
             int use_it(void) {
                 struct S *s = (struct S *)malloc(sizeof(struct S));
                 struct T *t = (struct T *)s;
                 t->buf[0] = 1;
                 return 0;
             }";
        // EffectiveSan-full: the unused cast is NOT checked...
        let (_, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[]);
        assert_eq!(vm.backend().error_stats().type_issues(), 0);
        // ...but the used one is.  (S contains ints/floats, T wants chars —
        // the char coercion makes the byte access legal, so use a pointer
        // use that genuinely mismatches below.)
        let (_, vm) = run_with(src, SanitizerKind::EffectiveType, "use_it", &[]);
        // The type variant checks the explicit cast regardless of use.
        assert!(vm.backend().stats().cast_checks >= 1);
    }

    #[test]
    fn globals_are_typed_and_accessible() {
        let src = "int table[16];
             int run(void) {
                 for (int i = 0; i < 16; i++) { table[i] = i * i; }
                 return table[7];
             }";
        let (v, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[]);
        assert_eq!(v, Value::Int(49));
        assert_eq!(vm.backend().error_stats().distinct_issues, 0);
    }

    #[test]
    fn cma_allocations_are_legacy_and_never_false_positive() {
        let src = "struct Obj { int a; int b; };
             int run(void) {
                 struct Obj *o = (struct Obj *)xmalloc(sizeof(struct Obj));
                 o->a = 1;
                 o->b = 2;
                 return o->a + o->b;
             }";
        let (v, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[]);
        assert_eq!(v, Value::Int(3));
        assert_eq!(vm.backend().error_stats().distinct_issues, 0);
        assert!(vm.backend().stats().legacy_type_checks >= 1);
    }

    #[test]
    fn memcpy_and_strings_work() {
        let src = r#"int run(void) {
                 char *buf = (char *)malloc(64);
                 memset(buf, 65, 8);
                 char *copy = (char *)malloc(64);
                 memcpy(copy, buf, 8);
                 print_str("done");
                 return strlen(copy) >= 8;
             }"#;
        let (v, vm) = run_with(src, SanitizerKind::EffectiveFull, "run", &[]);
        assert_eq!(v, Value::Int(1));
        assert_eq!(vm.output(), &["done".to_string()]);
    }

    #[test]
    fn instruction_limit_stops_runaway_loops() {
        let src = "int run(void) { int x = 0; while (1) { x += 1; } return x; }";
        let program = minic::compile(src).unwrap();
        let mut vm = Vm::new(
            Arc::new(program),
            VmConfig {
                sanitizer: SanitizerKind::None,
                max_instructions: 10_000,
                ..Default::default()
            },
        );
        assert_eq!(vm.run("run", &[]), Err(VmError::InstructionLimit));
    }

    #[test]
    fn division_by_zero_and_bad_entry_are_errors() {
        let src = "int run(int a) { return 10 / a; }";
        let program = Arc::new(minic::compile(src).unwrap());
        let mut vm = Vm::new(program.clone(), VmConfig::default());
        assert_eq!(
            vm.run("run", &[Value::Int(0)]),
            Err(VmError::DivisionByZero)
        );
        let mut vm = Vm::new(program, VmConfig::default());
        assert!(matches!(
            vm.run("nope", &[]),
            Err(VmError::UndefinedFunction(_))
        ));
    }

    #[test]
    fn cost_model_orders_sanitizers_by_coverage() {
        let src = "int run(int n) {
                 int *a = (int *)malloc(n * sizeof(int));
                 int s = 0;
                 for (int i = 0; i < n; i++) { a[i] = i; s += a[i]; }
                 free(a);
                 return s;
             }";
        let program = minic::compile(src).unwrap();
        let model = CostModel::default();
        let mut costs = std::collections::HashMap::new();
        for kind in [
            SanitizerKind::None,
            SanitizerKind::EffectiveFull,
            SanitizerKind::EffectiveBounds,
            SanitizerKind::EffectiveType,
        ] {
            let instrumented = instrument_program(&program, kind);
            let mut vm = Vm::new(
                Arc::new(instrumented),
                VmConfig {
                    sanitizer: kind,
                    ..Default::default()
                },
            );
            vm.run("run", &[Value::Int(1000)]).unwrap();
            let cost = model.cost(&vm.stats(), &vm.backend().stats());
            costs.insert(kind, cost);
        }
        let base = costs[&SanitizerKind::None];
        assert!(costs[&SanitizerKind::EffectiveFull] > costs[&SanitizerKind::EffectiveBounds]);
        assert!(costs[&SanitizerKind::EffectiveBounds] > base);
        assert!(costs[&SanitizerKind::EffectiveType] >= base);
        assert!(costs[&SanitizerKind::EffectiveFull] > 1.5 * base);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let src = "long run(void) { return rand() + rand(); }";
        let program = Arc::new(minic::compile(src).unwrap());
        let mut a = Vm::new(program.clone(), VmConfig::default());
        let mut b = Vm::new(program, VmConfig::default());
        assert_eq!(a.run("run", &[]).unwrap(), b.run("run", &[]).unwrap());
    }

    /// A VM over `src` instrumented for `kind`: the default config when
    /// `tiered`, else the slow-tier-only oracle.
    fn vm_in_tier(src: &str, kind: SanitizerKind, tiered: bool) -> Vm {
        let program = minic::compile(src).unwrap();
        let instrumented = instrument_program(&program, kind);
        let mut config = VmConfig {
            sanitizer: kind,
            ..Default::default()
        };
        if !tiered {
            config.promote_after_calls = u32::MAX;
        }
        Vm::new(Arc::new(instrumented), config)
    }

    #[test]
    fn the_default_runs_every_activation_fast_and_max_runs_none() {
        // `step` is called from a loop and `unused` never: under the
        // default each called function is translated once, at its first
        // call, and every activation is fast; under `u32::MAX` none is.
        let src = "int step(int i) { return i * 2; }
        int unused(void) { return 0; }
        int run(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += step(i); }
            return s;
        }";
        for tiered in [true, false] {
            let mut vm = vm_in_tier(src, SanitizerKind::None, tiered);
            for _ in 0..3 {
                assert_eq!(vm.run("run", &[Value::Int(10)]), Ok(Value::Int(90)));
            }
            let stats = vm.stats();
            assert_eq!(stats.calls, 33, "tiered {tiered}");
            if tiered {
                assert_eq!(stats.tier_promotions, 2);
                assert_eq!(stats.fast_calls, stats.calls);
            } else {
                assert_eq!(stats.tier_promotions, 0);
                assert_eq!(stats.fast_calls, 0);
            }
        }
    }

    const LOOPY: &str = "int run(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) { s += i; }
        return s;
    }";

    fn loopy_vm(promote_after_calls: u32, osr_after_backjumps: u32) -> Vm {
        Vm::new(
            Arc::new(minic::compile(LOOPY).unwrap()),
            VmConfig {
                sanitizer: SanitizerKind::None,
                promote_after_calls,
                osr_after_backjumps,
                ..Default::default()
            },
        )
    }

    #[test]
    fn promote_threshold_zero_is_clamped_to_first_call() {
        // 0 is not "before any call": it behaves exactly like 1, one
        // translation at the first call.
        for threshold in [0, 1] {
            let mut vm = loopy_vm(threshold, u32::MAX);
            vm.run("run", &[Value::Int(4)]).unwrap();
            assert_eq!(vm.stats().tier_promotions, 1, "threshold {threshold}");
            assert_eq!(vm.stats().fast_calls, 1, "threshold {threshold}");
        }
    }

    #[test]
    fn promote_threshold_max_disables_tiering_entirely() {
        // osr_after_backjumps is read by nothing: 1000 backward jumps with
        // osr=1 stay in the slow tier when promote=MAX.
        let mut vm = loopy_vm(u32::MAX, 1);
        vm.run("run", &[Value::Int(1000)]).unwrap();
        assert_eq!(vm.stats().tier_promotions, 0);
        assert_eq!(vm.stats().fast_calls, 0);
    }

    #[test]
    fn fast_tier_runs_every_check_the_slow_tier_runs() {
        // The loop body checks `p->a` three times per iteration (one store
        // guard, two load guards) over the same pointer, offset and bounds
        // value.  Both tiers must run all three.
        let src = "struct pair { int a; int b; };
        int run(int n) {
            struct pair *p = (struct pair *)malloc(sizeof(struct pair));
            int s = 0;
            for (int i = 0; i < n; i++) {
                p->a = i;
                s += p->a * p->a;
            }
            free(p);
            return s;
        }";
        let mut fast = vm_in_tier(src, SanitizerKind::EffectiveFull, true);
        let fast_result = fast.run("run", &[Value::Int(50)]).unwrap();
        let mut slow = vm_in_tier(src, SanitizerKind::EffectiveFull, false);
        let slow_result = slow.run("run", &[Value::Int(50)]).unwrap();
        assert_eq!(fast_result, slow_result);
        assert!(fast.stats().fast_calls > 0);
        assert_eq!(fast.backend().stats(), slow.backend().stats());
        assert_eq!(fast.stats().checks_elided, 0);
        assert_eq!(fast.backend().error_stats().distinct_issues, 0);
    }

    #[test]
    fn huge_alloca_count_degrades_instead_of_panicking() {
        // elem_size (8) × count overflows u64: the multiply must saturate
        // into a failing allocation, not panic the interpreter.
        let src = "int run(void) {
                 long a[4611686018427387900];
                 a[0] = 1;
                 return (int)a[0];
             }";
        let program = minic::compile(src).unwrap();
        let instrumented = instrument_program(&program, SanitizerKind::EffectiveFull);
        let mut vm = Vm::new(
            Arc::new(instrumented),
            VmConfig {
                sanitizer: SanitizerKind::EffectiveFull,
                ..Default::default()
            },
        );
        // The allocation fails (null / wide pointer); whatever the result,
        // the VM must not panic on the size computation.
        let _ = vm.run("run", &[]);
    }
}
